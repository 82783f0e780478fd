"""Special-function kernel.

Exact-rational Bernoulli data and Hurwitz zeta at nonpositive integer
first argument: every Bernoulli number comes from one integer source, the
tangent-number recurrence, and the Hurwitz zeta values of one argument
come from one integer pass over the Bernoulli polynomial rows, each
built when an order first needs it, as numerators over known
denominators.  One fixed-point kernel for log Gamma and log Barnes G
together, by their asymptotic series summed in integers in the log
domain without forming Gamma or G; the antiderivative of log-gamma
(negapolygamma of order -2) and log A (Glaisher-Kinkelin) from that
kernel; and :func:`memo`, the one memo of O(1)-argument kernel values.
Every kernel takes its precision as an argument and reads none of
mpmath's.  Callers combine kernel values in integers and round the
result once through :meth:`fekete.precision.Context.ratio`.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from operator import mul

import mpmath
from mpmath.libmp import (fone, from_int, from_man_exp, ftwo, mpf_log, mpf_pi, mpf_shift,
                          round_nearest, to_fixed)

from .exceptions import check_size


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], tan x = sum_k T_k x^(2k-1)/(2k-1)!, by the integer
    recurrence of Brent & Harvey (2013, Algorithm TangentNumbers): O(n^2)
    small multiples and additions of integers of O(n log n) bits."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


@functools.cache
def _bernoulli_table(n: int) -> tuple[Fraction, ...]:
    """B_0, ..., B_(2n+1) exactly: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from :func:`_tangent_numbers`, and 0 at odd indices past 1."""
    t = _tangent_numbers(n)
    numbers = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, n + 1):
        numbers += (Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1)),
                    Fraction(0))
    return tuple(numbers)


def _bernoulli(m: int) -> Fraction:
    """Exact B_m (B_1 = -1/2) for any m >= 0, the one source of Bernoulli
    numbers: from the table of :func:`_bernoulli_table` at the least power
    of two n >= 32 that holds index m."""
    return _bernoulli_table(max(32, 1 << (m // 2 - 1).bit_length()))[m]


@functools.cache
def _bernoulli_row(m: int) -> tuple[int, tuple[int, ...]]:
    """(L_m, (A_0, ..., A_m)) with B_m(x) = sum_k A_k x^k / L_m and L_m the
    least common denominator of the coefficients binom(m, k) B_(m-k)."""
    coeffs = [math.comb(m, k) * _bernoulli(m - k) for k in range(m + 1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


def bernoulli_number(m: int) -> Fraction:
    """Exact Bernoulli number B_m, any m >= 0, with B_1 = -1/2, so that
    zeta(-m, a) = -B_{m+1}(a)/(m+1) holds with zeta(0, 1) = -1/2."""
    return _bernoulli(check_size(m, "m", 0))


def hurwitz_zeta_negint_numerators(r: int, s: int, top: int) -> tuple[tuple[int, int], ...]:
    """((Z_0, d_0), ..., (Z_(top-1), d_(top-1))) with

        zeta(-k, r/s) = -B_(k+1)(r/s)/(k+1) = Z_k / (d_k s^top),

    s > 0, unreduced: d_k = (k + 1) L_(k+1) depends on k alone, and the
    power s^top is the same for every k, so values at arguments written
    over one common s combine by their numerators.

    One pass per argument: the powers r^j s^(top-j), j <= top, once, then
    each integer row (L_m, A_m) of :func:`_bernoulli_row` as the dot
    product -sum_j A_mj r^j s^(top-j) = -s^(top-m) L_m B_m(r/s)."""
    r_pows, s_pows = [1], [1]
    for _ in range(top):
        r_pows.append(r_pows[-1] * r)
        s_pows.append(s_pows[-1] * s)
    weights = list(map(mul, r_pows, reversed(s_pows)))
    return tuple((-sum(map(mul, coeffs, weights)), m * den)
                 for m, (den, coeffs) in enumerate(map(_bernoulli_row, range(1, top + 1)), 1))


# -- O(1)-argument kernels ----------------------------------------------------

@functools.cache
def memo(kernel, x, prec: int):
    """``kernel(x, prec)``, computed once per (kernel, x, prec): the key is
    the precision the kernel runs at, so a value never depends on which
    caller filled it, nor on mpmath's working precision meanwhile.  For
    the O(1) arguments that many calls share: psi^(-2) in the expansion
    constants, and log Gamma and log G at 2p and 2q in the Jacobi
    quantities."""
    return kernel(x, prec)


def fixed_bits(prec: int) -> int:
    """fp, the fractional bits of the values of :func:`log_gamma_g_fixed` at
    precision ``prec``: the prec bits, 10 + 2 bitlen(prec) guard bits for
    the cancellation of the shift (see there) and 8 bits for the
    truncations of the fixed-point arithmetic."""
    return prec + 18 + 2 * prec.bit_length()


def _series_terms(fp: int, w: int, term) -> tuple:
    """The terms of a series sum_k c_k z^(-e_k), k = 1, 2, ..., with
    ``term(k)`` = (numerator, denominator, e_k) of c_k, through the first
    whose value at z = w is below 2^-wp, wp = fp - 8: the c_k 2^fp,
    rounded, and for each k the negated bound min_{j<=k} (mag c_j + wp)/e_j
    on log2 z up to which the first k terms are all above 2^-wp."""
    wp, coeffs, bounds = fp - 8, [], []
    while not bounds or -bound >= math.log2(w):
        num, den, e = term(len(coeffs) + 1)
        c = ((num << (fp + 1)) // den + 1) >> 1
        bound = -(abs(c).bit_length() - fp + wp) / e
        coeffs.append(c)
        bounds.append(max(bound, bounds[-1]) if bounds else bound)
    return tuple(bounds), tuple(coeffs)


def _gamma_term(k: int) -> tuple:
    b = _bernoulli(2 * k)  # B_2k / (2k (2k - 1)) z^(1 - 2k)
    return b.numerator, b.denominator * 2 * k * (2 * k - 1), 2 * k - 1


def _g_term(k: int) -> tuple:
    b = _bernoulli(2 * k + 2)  # B_(2k+2) / (4k (k + 1)) z^(-2k)
    return b.numerator, b.denominator * 4 * k * (k + 1), 2 * k


@functools.cache
def _fixed_data(fp: int) -> tuple:
    """The fixed-point data of the Stirling series of log Gamma and of the
    asymptotic series of log G at fp fractional bits: log(2 pi)/2,
    zeta'(-1) = 1/12 - log A, the shift threshold w and the two term
    tables (see :func:`_series_terms`).  Computed at explicit precisions,
    not mpmath's process-global one, which a thread in another mode may
    change meanwhile."""
    w = (fp - 8) // 6 + 1
    two_pi = mpf_shift(mpf_pi(fp + 10, round_nearest), 1)
    half_log_2pi = to_fixed(mpf_shift(mpf_log(two_pi, fp + 10, round_nearest), -1), fp)
    data = (half_log_2pi, 0, w, _series_terms(fp, w, _gamma_term),
            _series_terms(fp, w, _g_term))
    # with zeta'(-1) left out of the log G series, the kernel's value of
    # log G(1) = 0, by the shift from 1 + w, comes out as -zeta'(-1)
    zeta1 = -_log_gamma_g(fone, fp, data)[1]
    return (half_log_2pi, zeta1, *data[2:])


def log_fixed(man: int, exp: int, fp: int) -> int:
    """log(man 2^exp), man > 0, as an integer scaled by 2^fp."""
    bits = fp + abs(exp + man.bit_length()).bit_length() + 2
    return to_fixed(mpf_log(from_man_exp(man, exp), bits, round_nearest), fp)


def _horner(terms: tuple, log2_z: float, u: int, fp: int) -> int:
    """sum_{k<K} c_(k+1) u^k 2^fp over the first K terms of a table of
    :func:`_series_terms` whose value at this z is above 2^-wp, by the
    integer Horner step s = ((s u) >> fp) + c; 0 when there are none."""
    bounds, coeffs = terms
    s = 0
    for c in reversed(coeffs[:bisect_right(bounds, -log2_z)]):
        s = ((s * u) >> fp) + c
    return s


def log_gamma_g_fixed(x, prec: int) -> tuple[int, int]:
    """(log Gamma(x), log G(x)) for real x > 0 (int, mpf or mpf tuple, taken
    exactly), as integers scaled by 2^fp, fp = :func:`fixed_bits` of
    ``prec``, each within a few units of 2^(8 - fp) max(|value|, 1), and
    exactly 0 at x = 1 and 2, where Gamma and G are 1; neither Gamma nor G
    is formed.

    With z = x - 1 at least w = wp/6 (wp = fp - 8), one log z serves
    Stirling's series and the asymptotic series of log G (DLMF 5.11.1,
    and 5.17.5 with Stirling's series substituted for log Gamma(z + 1)):

        log Gamma(z + 1) = (z + 1/2) log z - z + (1/2) log 2pi
                           + sum_{k>=1} B_2k / (2k(2k-1) z^(2k-1)),
        log G(z + 1) = (z^2/2 - 1/12) log z - 3z^2/4 + (z/2) log 2pi
                       + zeta'(-1) + sum_{k>=1} B_{2k+2} / (4k(k+1) z^(2k)),

    each summed through its last term above 2^-wp; their smallest terms,
    about exp(-2 pi z) < 2^(-1.5 wp), lie far below that.  Everything is
    formed in fixed point, as integers scaled by 2^fp: the series by the
    Horner step of :func:`_horner` with u = 2^fp / z^2 (times 1/z for
    log Gamma, 1/z^2 for log G), log z by ``mpmath.libmp.mpf_log``.  Each
    truncation costs at most about z^2 units of 2^-fp, while the values
    grow like z^2 (log z)/2, so the 8 bits beyond wp cover them.

    A smaller z is shifted first to z + m >= w, m = ceil(w - z): with
    Q1 = prod_{i<m} (x + i) and Q2 = prod_{i<m} (x + i)^(i+1),

        log Gamma(x) = log Gamma(x + m) - log Q1,
        log G(x) = log G(x + m) - m log Gamma(x + m) + log Q2.

    Each factor x + i is an exact integer times 2^-t, with t the fractional
    bits of x: small for the arguments n + 2p of charges with short
    binary expansions, 0 for n + 1, and large for a tiny x (2p near 0),
    which so keeps its digits.  The two products are integer mantissas,
    cut to fp + bitlen(m) + 4 bits as they grow, times powers of two; one
    ``mpf_log`` each.  The guard bits of :func:`fixed_bits` cover the
    subtraction, which cancels about log2 log G(w + 1) < 2 log2 wp bits.
    The constant zeta'(-1) = 1/12 - log A comes from the same arithmetic:
    it is minus the value of log G(1) = 0 computed with the constant left
    out (see ``_fixed_data``), so it carries the error of one shifted value.
    """
    if not isinstance(x, tuple):
        x = from_int(x) if isinstance(x, int) else x._mpf_
    if x[0] or not x[1]:  # sign set, or a zero, inf or nan
        raise ValueError(f"log Gamma and log G need a finite x > 0, got {mpmath.mpf(x)}")
    if x in (fone, ftwo):
        return 0, 0
    fp = fixed_bits(prec)
    return _log_gamma_g(x, fp, _fixed_data(fp))


def _log_gamma_g(x: tuple, fp: int, data: tuple) -> tuple[int, int]:
    """:func:`log_gamma_g_fixed` at the mpf tuple x > 0, from the data of
    ``_fixed_data``."""
    one = 1 << fp
    z = to_fixed(x, fp) - one  # exact for x >= 1, which has no bits below 2^-fp
    half_log_2pi, zeta1, w, gamma_terms, g_terms = data
    m = max(0, ((w << fp) - z + one - 1) >> fp)
    z += m << fp
    log_z = log_fixed(z, -fp, fp)
    log2_z = log_z / one / math.log(2)
    zz = z * z
    z2, u, v = zz >> fp, (1 << (3 * fp)) // zz, (1 << (2 * fp)) // z
    lg = (((z + (one >> 1)) * log_z) >> fp) - z + half_log_2pi
    lg += (_horner(gamma_terms, log2_z, u, fp) * v) >> fp
    lG = ((((z2 >> 1) - one // 12) * log_z) >> fp) - ((3 * z2) >> 2)
    lG += ((z * half_log_2pi) >> fp) + zeta1 + ((_horner(g_terms, log2_z, u, fp) * u) >> fp)
    if m:
        bits = fp + m.bit_length() + 4
        t = max(0, -x[2])  # x 2^t is an integer, and so is each factor below
        xt = x[1] << max(0, x[2])
        q1 = q2 = 1
        e1 = e2 = 0
        for i in range(m - 1, -1, -1):  # q1 2^e1 = prod_{j>=i} (x + j), q2 2^e2 = prod of the q1
            q1 *= xt + (i << t)
            e1 -= t
            drop = q1.bit_length() - bits
            if drop > 0:
                q1 >>= drop
                e1 += drop
            q2 *= q1
            e2 += e1
            drop = q2.bit_length() - bits
            if drop > 0:
                q2 >>= drop
                e2 += drop
        lG += log_fixed(q2, e2, fp) - m * lg
        lg -= log_fixed(q1, e1, fp)
    return lg, lG


def psi2_fixed(x: tuple, prec: int) -> tuple[int, int, int]:
    """(fp, psi^(-2)(x), x log Gamma(x) - psi^(-2)(x)) for the mpf tuple
    x >= 0, taken exactly, the two values as integers scaled by 2^fp, from
    one :func:`memo` value of :func:`log_gamma_g_fixed`.  With psi^(-2)(x) =
    integral_0^x log Gamma (DLMF 5.17.4, and G(x + 1) = Gamma(x) G(x)):

        psi^(-2)(x) = x(1 - x)/2 + (x/2) log 2pi + (x - 1) log Gamma(x) - log G(x),
        x log Gamma(x) - psi^(-2)(x) = log G(x + 1) - x(1 - x)/2 - (x/2) log 2pi,

    both 0 at x = 0.  As x -> 0, log Gamma(x) and -log G(x) both approach
    log(1/x) while the values are about x log(1/x) and -x: the kernel runs
    at ``prec`` plus log2(1/x) bits for that cancellation, and fp is the
    :func:`fixed_bits` of that."""
    prec += max(0, -(x[2] + x[3]))
    fp = fixed_bits(prec)
    if not x[1]:
        return fp, 0, 0
    lg, lG = memo(log_gamma_g_fixed, x, prec)
    one, xf = 1 << fp, to_fixed(x, fp)
    half = (xf * (one - xf + 2 * _fixed_data(fp)[0])) >> (fp + 1)  # x(1-x)/2 + (x/2) log 2pi
    return fp, half + (((xf - one) * lg) >> fp) - lG, lg + lG - half


def log_glaisher_fixed(fp: int) -> int:
    """log A = 1/12 - zeta'(-1), A the Glaisher-Kinkelin constant, as an
    integer scaled by 2^fp, from the kernel's own zeta'(-1) at fp
    fractional bits (see :func:`log_gamma_g_fixed`)."""
    return (1 << fp) // 12 - _fixed_data(fp)[1]
