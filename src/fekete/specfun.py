"""Special-function kernel.

Exact-rational Bernoulli data, Hurwitz zeta at nonpositive integer first
argument, log-gamma, and the antiderivative of log-gamma (negapolygamma of
order -2) from ``mpmath.zeta(-1, x, 1)`` at guard digits.  Everything is a
pure function of its arguments plus immutable tables built on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .exceptions import CapacityError, DomainError, check_finite_above, check_size
from .precision import Scalar, active

#: exact Bernoulli numbers are stored through this index; polynomial
#: coefficient rows extend two orders beyond it
BERNOULLI_MAX_ORDER = 32


@dataclass(frozen=True)
class BernoulliTable:
    """Exact rational Bernoulli numbers and polynomial coefficients.

    Convention: B_1 = -1/2, so that B_1(x) = x - 1/2 and
    zeta(-m, a) = -B_{m+1}(a)/(m+1) holds with zeta(0, 1) = -1/2.
    ``poly_coeffs[m][k]`` is the coefficient of x^k in B_m(x).
    """

    max_order: int
    numbers: tuple[Fraction, ...]
    poly_coeffs: tuple[tuple[Fraction, ...], ...]


@lru_cache(maxsize=1)
def bernoulli_table() -> BernoulliTable:
    top = BERNOULLI_MAX_ORDER + 2
    numbers: list[Fraction] = [Fraction(1)]
    for m in range(1, top + 1):
        # sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * numbers[k]
        numbers.append(-acc / (m + 1))
    rows = []
    for m in range(top + 1):
        rows.append(tuple(math.comb(m, k) * numbers[m - k] for k in range(m + 1)))
    return BernoulliTable(
        max_order=BERNOULLI_MAX_ORDER,
        numbers=tuple(numbers[: BERNOULLI_MAX_ORDER + 1]),
        poly_coeffs=tuple(rows),
    )


def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    m = check_size(m, "m", 0)
    table = bernoulli_table()
    if m > table.max_order:
        raise CapacityError(f"Bernoulli numbers tabulated through {table.max_order}, got {m}")
    return table.numbers[m]


def bernoulli_poly_fraction(m: int, x: Fraction) -> Fraction:
    """Exact rational B_m(x)."""
    m = check_size(m, "m", 0)
    table = bernoulli_table()
    if m > table.max_order + 2:
        raise CapacityError(
            f"Bernoulli polynomials tabulated through {table.max_order + 2}, got {m}"
        )
    coeffs = table.poly_coeffs[m]
    acc = Fraction(0)
    for k in range(m, -1, -1):  # Horner, exact
        acc = acc * x + coeffs[k]
    return acc


def hurwitz_zeta_negint_fraction(m: int, a: Fraction) -> Fraction:
    """Exact zeta(-m, a) = -B_{m+1}(a)/(m+1) for m >= 0."""
    m = check_size(m, "m", 0)
    return -bernoulli_poly_fraction(m + 1, a) / (m + 1)


def log_gamma(x) -> Scalar:
    """log Gamma(x) for x > 0."""
    ctx = active()
    x = ctx.real(x)
    check_finite_above(0, "log_gamma argument", x=x)
    try:
        return ctx.lgamma(x)
    except OverflowError:
        raise CapacityError(f"log Gamma({x}) overflows {ctx.mode} precision") from None


# -- antiderivative of log-gamma ----------------------------------------------

_npg2_cache: dict = {}


def negapolygamma2(x) -> Scalar:
    """psi^(-2)(x) = integral_0^x log Gamma(t) dt for x >= 0.

    Evaluated as zeta'(-1, x) - zeta'(-1) + (1-x)x/2 + (x/2) log 2pi, with
    zeta'(-1) = 1/12 - log A, by mpmath at guard digits and rounded once.
    """
    ctx = active()
    x = ctx.real(x)
    if not 0 <= x < math.inf:
        raise DomainError(f"negapolygamma2 requires finite x >= 0, got {x}")
    if x == 0:
        return ctx.zero()
    key = (x, ctx.key)
    cached = _npg2_cache.get(key)
    if cached is None:
        cached = _npg2_cache[key] = ctx.guarded(lambda: _negapolygamma2_mp(mpmath.mpf(x)))
    return cached


def _negapolygamma2_mp(x: mpmath.mpf) -> mpmath.mpf:
    # psi^(-2)(x) ~ x log(1/x) as x -> 0, while zeta'(-1, x) - zeta'(-1)
    # cancels two terms of size 0.17: carry log2(1/x) more bits for it
    with mpmath.extraprec(max(0, -mpmath.mag(x))):
        return (mpmath.zeta(-1, x, 1) - mpmath.mpf(1) / 12 + mpmath.log(mpmath.glaisher)
                + (1 - x) * x / 2 + x * mpmath.log(2 * mpmath.pi) / 2)
