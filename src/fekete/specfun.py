"""Special-function kernel.

Exact-rational Bernoulli data (from ``mpmath.bernfrac``) and Hurwitz zeta
at nonpositive integer first argument, the Bernoulli polynomials evaluated
by Horner in integers over each row's common denominator; two mpf kernels
at the caller's working precision: the antiderivative of log-gamma
(negapolygamma of order -2) from ``mpmath.zeta(-1, x, 1)``, and log Barnes
G by its asymptotic series, summed in fixed-point integers in the log
domain without forming G; and :func:`memo`, the one memo of O(1)-argument
kernel values.  Callers round kernel values through
:meth:`fekete.precision.Context.guarded`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import mpf_log, round_nearest, to_fixed, to_float

from .exceptions import CapacityError, check_size

#: exact Bernoulli numbers are stored through this index; polynomial
#: coefficient rows extend two orders beyond it
BERNOULLI_MAX_ORDER = 32


@dataclass(frozen=True)
class BernoulliTable:
    """Exact rational Bernoulli numbers and integer polynomial rows.

    Convention: B_1 = -1/2, so that B_1(x) = x - 1/2 and
    zeta(-m, a) = -B_{m+1}(a)/(m+1) holds with zeta(0, 1) = -1/2.
    ``poly_rows[m]`` is (L_m, (A_0, ..., A_m)): B_m(x) = sum_k A_k x^k / L_m,
    with L_m the least common denominator of the coefficients
    binom(m, k) B_{m-k}.
    """

    max_order: int
    numbers: tuple[Fraction, ...]
    poly_rows: tuple[tuple[int, tuple[int, ...]], ...]


def _integer_row(coeffs: list[Fraction]) -> tuple[int, tuple[int, ...]]:
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


@lru_cache(maxsize=1)
def bernoulli_table() -> BernoulliTable:
    top = BERNOULLI_MAX_ORDER + 2
    numbers = [Fraction(*mpmath.bernfrac(m)) for m in range(top + 1)]
    rows = tuple(_integer_row([math.comb(m, k) * numbers[m - k] for k in range(m + 1)])
                 for m in range(top + 1))
    return BernoulliTable(
        max_order=BERNOULLI_MAX_ORDER,
        numbers=tuple(numbers[: BERNOULLI_MAX_ORDER + 1]),
        poly_rows=rows,
    )


def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2 convention)."""
    m = check_size(m, "m", 0)
    table = bernoulli_table()
    if m > table.max_order:
        raise CapacityError(f"Bernoulli numbers tabulated through {table.max_order}, got {m}")
    return table.numbers[m]


def bernoulli_poly_fraction(m: int, x: Fraction) -> Fraction:
    """Exact rational B_m(x).

    With x = r/s, the homogeneous Horner sum sum_k A_k r^k s^(m-k) of the
    integer row runs in integers; one division by L_m s^m at the end."""
    m = check_size(m, "m", 0)
    table = bernoulli_table()
    if m > table.max_order + 2:
        raise CapacityError(
            f"Bernoulli polynomials tabulated through {table.max_order + 2}, got {m}"
        )
    den, coeffs = table.poly_rows[m]
    r, s = x.numerator, x.denominator
    acc, s_pow = coeffs[m], 1
    for k in range(m - 1, -1, -1):
        s_pow *= s
        acc = acc * r + coeffs[k] * s_pow
    return Fraction(acc, den * s_pow)


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


#: per working precision wp: the fixed-point data of the log G series at
#: fp = wp + 8 fractional bits -- log(2 pi)/2, zeta'(-1) = 1/12 - log A and
#: the series terms (mag c_k, c_k), c_k = B_{2k+2} / (4k(k+1)), each as an
#: integer scaled by 2^fp, through the first term whose value at z = w is
#: below 2^-wp -- and the shift threshold w; built on first use
_log_g_series: dict = {}


def _log_g_data(wp: int) -> tuple:
    data = _log_g_series.get(wp)
    if data is None:
        fp = wp + 8
        w = wp // 6 + 1
        terms = []
        while not terms or terms[-1][0] - 2 * len(terms) * math.log2(w) >= -wp:
            k = len(terms) + 1
            num, den = mpmath.bernfrac(2 * k + 2)
            den *= 4 * k * (k + 1)
            c = ((num << (fp + 1)) // den + 1) >> 1  # c_k 2^fp, rounded
            terms.append((abs(c).bit_length() - fp, c))
        with mpmath.workprec(fp + 10):
            half_log_2pi = to_fixed((mpmath.log(2 * mpmath.pi) / 2)._mpf_, fp)
            zeta1 = to_fixed((mpmath.mpf(1) / 12 - mpmath.log(mpmath.glaisher))._mpf_, fp)
        data = _log_g_series[wp] = (half_log_2pi, zeta1, w, tuple(terms))
    return data


def log_barnes_g_mp(x):
    """log G(x) for real x > 0 (int or mpf) at the working precision, within
    about an ulp of max(|log G(x)|, 1), without forming G(x).

    With z = x - 1 at least w = wp/6 (wp: the working bits plus guard
    bits), the asymptotic series (DLMF 5.17.5 with Stirling's series
    substituted for log Gamma(z + 1))

        log G(z + 1) = (z^2/2 - 1/12) log z - 3z^2/4 + (z/2) log 2pi
                       + zeta'(-1) + sum_{k>=1} B_{2k+2} / (4k(k+1) z^(2k))

    is summed through the last term above 2^-wp; its smallest term, about
    exp(-2 pi z) < 2^(-1.5 wp), lies far below that.  The whole right-hand
    side is formed in fixed point, as integers scaled by 2^fp with
    fp = wp + 8: the series by the integer Horner step
    s = ((s + c_k 2^fp) U) >> fp with U = 2^fp / z^2, log z from
    ``mpmath.libmp.mpf_log``, and one conversion back to mpf at the end.
    Each truncation costs at most about z^2 units of 2^-fp, while the
    value grows like z^2 (log z)/2, so the 8 bits beyond wp cover them.

    A smaller z is shifted first to z + m >= w, m = ceil(w - z), through
    G(z + 1 + m) = G(z + 1) prod_{j=1..m} Gamma(z + j), where
    sum_{j=1..m} log Gamma(z + j) = m lgamma(z + 1) + log prod_{i<m} (z + i)^(m-i),
    in mpf at wp bits.  The guard bits cover that subtraction, which
    cancels about log2 log G(w + 1) < 2 log2 wp bits.
    """
    with mpmath.extraprec(10 + 2 * mpmath.mp.prec.bit_length()):
        wp = mpmath.mp.prec
        fp = wp + 8
        half_log_2pi, zeta1, w, terms = _log_g_data(wp)
        z = mpmath.mpf(x) - 1  # an mpf from here on
        shift = 0
        if z < w:
            m = int(mpmath.ceil(w - z))
            rising = power = mpmath.mpf(1)
            for i in range(1, m):  # power = prod_{i<m} (z + i)^(m - i)
                rising *= z + i
                power *= rising
            shift = to_fixed((m * mpmath.loggamma(z + 1) + mpmath.log(power))._mpf_, fp)
            z += m
        log_z = mpf_log(z._mpf_, fp, round_nearest)
        log2_z = to_float(log_z) / math.log(2)
        count = 0  # the terms above 2^-wp at this z
        while count < len(terms) and terms[count][0] - 2 * (count + 1) * log2_z >= -wp:
            count += 1
        zf = to_fixed(z._mpf_, fp)  # exact: z >= w has no bits below 2^-wp
        zz = zf * zf
        z2, u = zz >> fp, (1 << (3 * fp)) // zz
        series = 0
        for k in range(count - 1, -1, -1):
            series = ((series + terms[k][1]) * u) >> fp
        value = ((((z2 >> 1) - (1 << fp) // 12) * to_fixed(log_z, fp)) >> fp) - ((3 * z2) >> 2)
        value += ((zf * half_log_2pi) >> fp) + zeta1 + series - shift
    return mpmath.mpf((value, -fp))
