"""Special-function kernel.

Exact-rational Bernoulli data, Hurwitz zeta at nonpositive integer first
argument, log-gamma with its Poincare-type expansion, the antiderivative
of log-gamma (negapolygamma of order -2), and the s-derivative of the
Hurwitz zeta function at s = -1, both from ``mpmath.zeta(-1, x, 1)`` at
guard digits, and its large-x asymptotic form.  Everything is a pure
function of its arguments plus immutable tables built on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import mpmath

from .exceptions import CapacityError, DomainError, check_finite_above, check_size
from .precision import Scalar, active, as_fraction

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


def bernoulli_poly(m: int, x) -> Scalar:
    """B_m(x), evaluated exactly in rational arithmetic and rounded once.

    (Binary floats are exact rationals, so no input rounding occurs; this
    is strictly tighter than floating accumulation.)
    """
    return active().real(bernoulli_poly_fraction(m, as_fraction(x)))


def hurwitz_zeta_negint_fraction(m: int, a: Fraction) -> Fraction:
    """Exact zeta(-m, a) = -B_{m+1}(a)/(m+1) for m >= 0."""
    m = check_size(m, "m", 0)
    return -bernoulli_poly_fraction(m + 1, a) / (m + 1)


def hurwitz_zeta_negint(m: int, a) -> Scalar:
    """Hurwitz zeta(-m, a) for m >= 0 and a > -1.

    Evaluated as an exact rational via -B_{m+1}(a)/(m+1); arguments in
    (-1, 0] agree with the shift identity zeta(s, a) = a^(-s) + zeta(s, a+1).
    """
    frac_a = as_fraction(a)
    if frac_a <= -1:
        raise DomainError(f"hurwitz_zeta_negint requires a > -1, got {a}")
    return active().real(hurwitz_zeta_negint_fraction(m, frac_a))


def log_gamma(x) -> Scalar:
    """log Gamma(x) for x > 0."""
    ctx = active()
    x = ctx.real(x)
    check_finite_above(0, "log_gamma argument", x=x)
    try:
        return ctx.lgamma(x)
    except OverflowError:
        raise CapacityError(f"log Gamma({x}) overflows {ctx.mode} precision") from None


def log_gamma_asym(x, a, order: int) -> Scalar:
    """Poincare-type truncation of log Gamma(x + a) for fixed a, x >= 1.

    (x + a - 1/2) log x - x + log(2 pi)/2
    - sum_{m=1..order} (-1)^(m-1)/m * zeta(-m, a) * x^(-m).
    """
    ctx = active()
    x = ctx.real(x)
    if not 1 <= x < math.inf:
        raise DomainError(f"log_gamma_asym requires finite x >= 1, got {x}")
    order = check_size(order, "order", 0)
    frac_a = as_fraction(a)
    a = ctx.real(a)
    head = ((x + a - ctx.real(Fraction(1, 2))) * ctx.log(x), -x, ctx.ln_2pi / 2)
    tail = (ctx.real((-1) ** m * hurwitz_zeta_negint_fraction(m, frac_a) / m) / x ** m
            for m in range(1, order + 1))
    return ctx.fsum(chain(head, tail))


# -- antiderivative of log-gamma and zeta'(-1, x) ----------------------------

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


def zeta_prime_neg1_exact(x) -> Scalar:
    """zeta'(-1, x) for x > 0, by mpmath at guard digits and rounded once."""
    ctx = active()
    x = ctx.real(x)
    check_finite_above(0, "zeta_prime_neg1_exact argument", x=x)
    return ctx.guarded(lambda: mpmath.zeta(-1, x, 1))


def zeta_prime_neg1_asym(x, a, order: int) -> Scalar:
    """Truncated large-x expansion of zeta'(-1, x + a), valid for x >= 2.

    x^2 log(x)/2 - x^2/4 - zeta(0,a) x log x - zeta(-1,a) (log x + 1)
    + sum_{k=1..order-1} (-1)^k/(k(k+1)) zeta(-k-1, a) x^(-k).

    The remainder after the full sum is O(x^-order); the log x factor one
    might expect there drops out (verified empirically by the decay-slope
    tests).  ``a`` may be any real; the zeta values are Bernoulli-polynomial
    evaluations, which extend the a > 0 case by the shift identity.
    """
    ctx = active()
    order = check_size(order, "order", 2)
    x = ctx.real(x)
    if not 2 <= x < math.inf:
        raise DomainError(f"zeta_prime_neg1_asym requires finite x >= 2, got {x}")
    frac_a = as_fraction(a)
    logx = ctx.log(x)
    z0 = ctx.real(hurwitz_zeta_negint_fraction(0, frac_a))
    z1 = ctx.real(hurwitz_zeta_negint_fraction(1, frac_a))
    head = (x * x * logx / 2, -x * x / 4, -z0 * x * logx, -z1 * logx, -z1)
    tail = (ctx.real((-1) ** k * hurwitz_zeta_negint_fraction(k + 1, frac_a) / (k * (k + 1)))
            / x ** k for k in range(1, order))
    return ctx.fsum(chain(head, tail))


@dataclass(frozen=True)
class Constants:
    """Named constants: log A (Glaisher-Kinkelin), zeta'(-1) = 1/12 - log A,
    and log(2 pi)/2."""

    log_glaisher: Scalar
    zeta_prime_neg1: Scalar
    half_log_2pi: Scalar


_constants_cache: dict = {}


def constants() -> Constants:
    ctx = active()
    cached = _constants_cache.get(ctx.key)
    if cached is None:
        log_a = ctx.log_glaisher
        cached = Constants(
            log_glaisher=log_a,
            zeta_prime_neg1=ctx.real(Fraction(1, 12)) - log_a,
            half_log_2pi=ctx.ln_2pi / 2,
        )
        _constants_cache[ctx.key] = cached
    return cached
