"""Special-function kernel.

Exact-rational Bernoulli data (from ``mpmath.bernfrac``) and Hurwitz zeta
at nonpositive integer first argument; two mpf kernels at the caller's
working precision: the antiderivative of log-gamma (negapolygamma of order
-2) from ``mpmath.zeta(-1, x, 1)``, and log Barnes G by its asymptotic
series, summed in the log domain without forming G; and :func:`memo`, the
one memo of O(1)-argument kernel values.  Callers round kernel values
through :meth:`fekete.precision.Context.guarded`.
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


#: per working precision: (log(2 pi)/2, zeta'(-1) = 1/12 - log A, the shift
#: threshold w, the series terms (mag c_k, c_k), c_k = B_{2k+2} / (4k(k+1)),
#: through the first whose term at z = w is below 2^-prec), built on first use
_log_g_series: dict = {}


def _log_g_data(prec: int) -> tuple:
    data = _log_g_series.get(prec)
    if data is None:
        w = prec // 6 + 1
        terms = []
        while not terms or terms[-1][0] - 2 * len(terms) * math.log2(w) >= -prec:
            k = len(terms) + 1
            num, den = mpmath.bernfrac(2 * k + 2)
            c = mpmath.mpf(num) / (4 * k * (k + 1) * den)
            terms.append((mpmath.mag(c), c))
        data = _log_g_series[prec] = (
            mpmath.log(2 * mpmath.pi) / 2, mpmath.mpf(1) / 12 - mpmath.log(mpmath.glaisher),
            w, tuple(terms))
    return data


def log_barnes_g_mp(x):
    """log G(x) for real x > 0 (int or mpf) at the working precision, within
    about an ulp of max(|log G(x)|, 1), without forming G(x).

    With z = x - 1 at least w = wp/6 (wp: the working bits plus guard
    bits), the asymptotic series (DLMF 5.17.5 with Stirling's series
    substituted for log Gamma(z + 1))

        log G(z + 1) = (z^2/2 - 1/12) log z - 3z^2/4 + (z/2) log 2pi
                       + zeta'(-1) + sum_{k>=1} B_{2k+2} / (4k(k+1) z^(2k))

    is summed by Horner through the last term above 2^-wp; its smallest
    term, about exp(-2 pi z) < 2^(-1.5 wp), lies far below that.  A smaller
    z is shifted first to z + m >= w, m = ceil(w - z), through
    G(z + 1 + m) = G(z + 1) prod_{j=1..m} Gamma(z + j), where
    sum_{j=1..m} log Gamma(z + j) = m lgamma(z + 1) + log prod_{i<m} (z + i)^(m-i).
    The guard bits cover that subtraction, which cancels about
    log2 log G(w + 1) < 2 log2 wp bits.
    """
    with mpmath.extraprec(10 + 2 * mpmath.mp.prec.bit_length()):
        wp = mpmath.mp.prec
        half_log_2pi, zeta1, w, terms = _log_g_data(wp)
        z = mpmath.mpf(x) - 1  # an mpf from here on, so that 1/z^2 is not a float
        shift = 0
        if z < w:
            m = int(mpmath.ceil(w - z))
            rising = power = mpmath.mpf(1)
            for i in range(1, m):  # power = prod_{i<m} (z + i)^(m - i)
                rising *= z + i
                power *= rising
            shift = m * mpmath.loggamma(z + 1) + mpmath.log(power)
            z += m
        log_z = mpmath.log(z)
        log2_z = float(log_z) / math.log(2)
        count = 0  # the terms above 2^-wp at this z
        while count < len(terms) and terms[count][0] - 2 * (count + 1) * log2_z >= -wp:
            count += 1
        u = 1 / (z * z)
        series = 0
        for k in range(count - 1, -1, -1):
            series = (series + terms[k][1]) * u
        z2 = z * z
        value = ((z2 / 2 - mpmath.mpf(1) / 12) * log_z - 3 * z2 / 4 + z * half_log_2pi
                 + zeta1 + series - shift)
    return +value
