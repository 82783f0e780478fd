"""Special-function kernel.

Exact-rational Bernoulli data (from ``mpmath.bernfrac``) and Hurwitz zeta
at nonpositive integer first argument; the mpf kernel of the antiderivative
of log-gamma (negapolygamma of order -2) from ``mpmath.zeta(-1, x, 1)``;
and :func:`memo`, the one memo of O(1)-argument kernel values.  Callers
round kernel values through :meth:`fekete.precision.Context.guarded`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .exceptions import CapacityError, check_size

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
    numbers = [Fraction(*mpmath.bernfrac(m)) for m in range(top + 1)]
    rows = tuple(tuple(math.comb(m, k) * numbers[m - k] for k in range(m + 1))
                 for m in range(top + 1))
    return BernoulliTable(
        max_order=BERNOULLI_MAX_ORDER,
        numbers=tuple(numbers[: BERNOULLI_MAX_ORDER + 1]),
        poly_coeffs=rows,
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


# -- O(1)-argument kernels ----------------------------------------------------

#: kernel values per (kernel, argument, mpmath working precision); keyed on
#: the precision too, so a value never depends on which caller filled it
_memo: dict = {}


def memo(kernel, x):
    """``kernel(x)`` at the working precision, computed once per (kernel, x,
    precision).  For the O(1) arguments that many calls share: psi^(-2) in
    the expansion constants and log G(s + 2) in the discriminant."""
    key = (kernel, x, mpmath.mp.prec)
    value = _memo.get(key)
    if value is None:
        value = _memo[key] = kernel(x)
    return value


def negapolygamma2_mp(x):
    """psi^(-2)(x) = integral_0^x log Gamma(t) dt for mpf x >= 0, at the
    working precision:

    zeta'(-1, x) - zeta'(-1) + (1-x)x/2 + (x/2) log 2pi, zeta'(-1) = 1/12 - log A.
    """
    if x == 0:
        return mpmath.mpf(0)
    # psi^(-2)(x) ~ x log(1/x) as x -> 0, while zeta'(-1, x) - zeta'(-1)
    # cancels two terms of size 0.17: carry log2(1/x) more bits for it
    with mpmath.extraprec(max(0, -mpmath.mag(x))):
        return (mpmath.zeta(-1, x, 1) - mpmath.mpf(1) / 12 + mpmath.log(mpmath.glaisher)
                + (1 - x) * x / 2 + x * mpmath.log(2 * mpmath.pi) / 2)
