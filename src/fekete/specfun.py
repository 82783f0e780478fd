"""Special-function kernel.

Exact-rational Bernoulli data, Hurwitz zeta at nonpositive integer first
argument, log-gamma with its Poincare-type expansion, the antiderivative
of log-gamma (negapolygamma of order -2), and the s-derivative of the
Hurwitz zeta function at s = -1 in both quadrature-exact and asymptotic
form.  Everything is a pure function of its arguments plus immutable
tables built on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exceptions import CapacityError, DomainError, check_size
from .precision import STD, CompensatedSum, Scalar, active, as_fraction

#: exact Bernoulli numbers are stored through this index; polynomial
#: coefficient rows extend two orders beyond it
BERNOULLI_MAX_ORDER = 32

# Gauss-Legendre panel order for the log-gamma antiderivative
_GL_ORDER = {"std": 24, "ext": 48}


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
    is strictly tighter than compensated floating accumulation.)
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
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return ctx.lgamma(x)


def log_gamma_asym(x, a, order: int) -> Scalar:
    """Poincare-type truncation of log Gamma(x + a) for fixed a, x >= 1.

    (x + a - 1/2) log x - x + log(2 pi)/2
    - sum_{m=1..order} (-1)^(m-1)/m * zeta(-m, a) * x^(-m).
    """
    ctx = active()
    x = ctx.real(x)
    if not x >= 1:
        raise DomainError(f"log_gamma_asym requires x >= 1, got {x}")
    order = check_size(order, "order", 0)
    frac_a = as_fraction(a)
    a = ctx.real(a)
    logx = ctx.log(x)
    acc = CompensatedSum(ctx.zero())
    acc.add((x + a - ctx.real(Fraction(1, 2))) * logx)
    acc.add(-x)
    acc.add(ctx.ln_2pi / 2)
    xpow = x
    for m in range(1, order + 1):
        coeff = -hurwitz_zeta_negint_fraction(m, frac_a) / m
        if m % 2 == 0:
            coeff = -coeff
        acc.add(ctx.real(coeff) / xpow)
        xpow = xpow * x
    return acc.value


# -- antiderivative of log-gamma ------------------------------------------

_gl_rules: dict = {}


def _gauss_legendre(npts: int) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """Nodes/weights on [-1, 1], computed in the active arithmetic."""
    ctx = active()
    cached = _gl_rules.get((npts, ctx.key))
    if cached is not None:
        return cached
    stop = ctx.eps * 8
    nodes, weights = [], []
    half = npts // 2
    for i in range(1, half + 1):
        x = ctx.real(math.cos(math.pi * (i - 0.25) / (npts + 0.5)))
        for _ in range(60):
            p0, p1 = ctx.real(1), x
            for k in range(2, npts + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = npts * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x = x - dx
            if abs(dx) < stop:
                break
        p0, p1 = ctx.real(1), x
        for k in range(2, npts + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = npts * (x * p1 - p0) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    if npts % 2:
        x = ctx.zero()
        p0, p1 = ctx.real(1), x
        for k in range(2, npts + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = npts * (x * p1 - p0) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    full_nodes = tuple(-v for v in nodes) + tuple(nodes[: half][::-1])
    full_weights = tuple(weights) + tuple(weights[: half][::-1])
    rule = (full_nodes, full_weights)
    _gl_rules[(npts, ctx.key)] = rule
    return rule


def _series_head(eps: Scalar) -> Scalar:
    """integral_0^eps log Gamma(t) dt for 0 < eps <= 1/2.

    Termwise integration of log Gamma(t) = -log t - gamma t
    + sum_{k>=2} (-1)^k zeta(k) t^k / k, which converges on |t| < 1.
    """
    ctx = active()
    acc = CompensatedSum(ctx.zero())
    acc.add(eps - eps * ctx.log(eps))
    acc.add(-ctx.euler_gamma * eps * eps / 2)
    cutoff = ctx.eps * 1e-4 if ctx.mode == STD else ctx.real(10) ** (-(ctx.dps + 6))
    power = eps * eps * eps
    k = 2
    while k <= 500:
        term = ctx.zeta_int(k) * power / (k * (k + 1))
        if k % 2:
            term = -term
        acc.add(term)
        if abs(term) < cutoff:
            break
        power = power * eps
        k += 1
    return acc.value


_npg2_cache: dict = {}


def negapolygamma2(x) -> Scalar:
    """psi^(-2)(x) = integral_0^x log Gamma(t) dt for x >= 0.

    The integrable log singularity at 0 is handled by splitting at
    eps = min(x, 1/2): termwise-integrated series on [0, eps], fixed-order
    Gauss-Legendre panels (unit length, cut at integers) on [eps, x].
    """
    ctx = active()
    x = ctx.real(x)
    if not x >= 0:
        raise DomainError(f"negapolygamma2 requires x >= 0, got {x}")
    if x == 0:
        return ctx.zero()
    key = (x, ctx.key)
    cached = _npg2_cache.get(key)
    if cached is not None:
        return cached
    half = ctx.real(Fraction(1, 2))
    eps = x if x < half else half
    acc = CompensatedSum(ctx.zero())
    acc.add(_series_head(eps))
    if x > eps:
        nodes, weights = _gauss_legendre(_GL_ORDER[ctx.mode])
        cuts = [eps]
        t = 1
        while t < x:
            if t > eps:
                cuts.append(ctx.real(t))
            t += 1
        cuts.append(x)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid, h = (lo + hi) / 2, (hi - lo) / 2
            panel = CompensatedSum(ctx.zero())
            for node, weight in zip(nodes, weights):
                panel.add(weight * ctx.lgamma(mid + h * node))
            acc.add(h * panel.value)
    result = acc.value
    _npg2_cache[key] = result
    return result


def zeta_prime_neg1_exact(x) -> Scalar:
    """zeta'(-1, x) by quadrature: psi^(-2)(x) - (1-x)x/2 - (x/2) log 2pi + zeta'(-1)."""
    ctx = active()
    x = ctx.real(x)
    if not x > 0:
        raise DomainError(f"zeta_prime_neg1_exact requires x > 0, got {x}")
    return (
        negapolygamma2(x)
        - (1 - x) * x / 2
        - x * ctx.ln_2pi / 2
        + constants().zeta_prime_neg1
    )


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
    if not x >= 2:
        raise DomainError(f"zeta_prime_neg1_asym requires x >= 2, got {x}")
    frac_a = as_fraction(a)
    logx = ctx.log(x)
    z0 = ctx.real(hurwitz_zeta_negint_fraction(0, frac_a))
    z1 = ctx.real(hurwitz_zeta_negint_fraction(1, frac_a))
    acc = CompensatedSum(ctx.zero())
    acc.add(x * x * logx / 2)
    acc.add(-x * x / 4)
    acc.add(-z0 * x * logx)
    acc.add(-z1 * logx)
    acc.add(-z1)
    xpow = x
    for k in range(1, order):
        coeff = hurwitz_zeta_negint_fraction(k + 1, frac_a) / (k * (k + 1))
        if k % 2 == 0:
            coeff = -coeff
        acc.add(-ctx.real(coeff) / xpow)
        xpow = xpow * x
    return acc.value


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
