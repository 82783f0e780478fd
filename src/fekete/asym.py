"""Truncated Poincare-type expansions.

Each builder returns an :class:`Expansion` holding the leading coefficients
(of n^2, n log n, n, log n, 1, under fixed keys) and the tail coefficients
c_m of n^(-m) up to a requested order.  Every coefficient is one integer
numerator over one integer denominator, rounded once into the active
precision by :meth:`~fekete.precision.Context.ratio`.  The leading ones
combine the exact inputs with fixed-point integers at the
:meth:`~fekete.precision.Context.exact_prec` of the context: log 2 and
pi from ``mpmath.libmp``, log pi, log Gamma, log Barnes G, psi^(-2) and
log A from the kernels of :mod:`fekete.specfun`.  The tail ones are exact
rationals of Bernoulli data.

:func:`truncations` takes the rounded coefficients as the exact binary
rationals they are and rounds each partial sum once, from a fixed-point
integer whose error bound decides the rounding.  No step reads mpmath's
working precision.  The series are asymptotic (divergent in general):
evaluation never chooses a truncation order by itself.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import ln2_fixed, pi_fixed, repr_dps, to_str

from .energy import IntervalSpec
from .exceptions import CapacityError, check_finite_above, check_size
from .jacobi import JacobiParams
from .precision import Scalar, active, integer_ratio, round_ratio
from .specfun import (bernoulli_number, fixed_bits, log_fixed, log_gamma_g_fixed,
                      log_glaisher_fixed, memo, psi2_fixed)
from .specfun import hurwitz_zeta_negint_numerators as _zeta

LEADING_KEYS = ("n2", "nlogn", "n", "logn", "const")

_MAX_ORDER = {"std": 10, "ext": 16}


def max_order() -> int:
    """Largest supported truncation order in the active mode."""
    return _MAX_ORDER[active().mode]


@dataclass(frozen=True)
class Expansion:
    """A truncated asymptotic series: leading terms plus n^(-m) tail."""

    kind: str
    params: dict[str, float]
    leading: dict[str, Scalar]
    tail: tuple[Scalar, ...]

    @property
    def order(self) -> int:
        return len(self.tail)


def _check_order(order: int) -> None:
    check_size(order, "order", 0)
    if order > max_order():
        raise CapacityError(f"order {order} exceeds the mode maximum {max_order()}")


# -- tail coefficients from integer numerators ------------------------------
#
# Each c_m is an exact rational of the Hurwitz zeta values
# zeta(-k, a) = -B_(k+1)(a)/(k+1) at the arguments of its kind.  The
# arguments are written over one common denominator S, so that
# hurwitz_zeta_negint_numerators gives every zeta(-k, a) as Z_k / (d_k S^top)
# with d_k and S^top shared by all of them.  Each c_m is then one integer
# numerator over one integer denominator -- integer combinations of the Z_k
# with the weights 1 - 2^-m = (2^m - 1)/2^m, 2p = P/S, 1/(m(m+1)), ... held
# as integer pairs, no gcd taken -- rounded once by Context.ratio.  Each
# generator yields (num, den) for m = 1, ..., order.


def _over_common_denominator(*values) -> tuple[int, tuple[int, ...]]:
    """(S, (R_1, ...)), S > 0, with each value exactly R_i / S."""
    pairs = [integer_ratio(v) for v in values]
    s = math.lcm(*(den for _, den in pairs))
    return s, tuple(num * (s // den) for num, den in pairs)


def _rows(top: int, s: int, *numerators: int):
    """S^top and the zeta numerators, through zeta(1 - top, .), at 1 and at
    each numerator / S."""
    return s ** top, tuple(_zeta(r, s, top) for r in (s, *numerators))


def _lambda_tail(order: int, alpha, beta):
    """c_m of log lambda_n: (-1)^(m-1)/m [(1-2^-m) zeta(-m, a+b+1) + zeta(-m)]."""
    s, (a, b) = _over_common_denominator(alpha, beta)
    s_top, (z_1, z_ab1) = _rows(order + 1, s, a + b + s)
    for m in range(1, order + 1):
        (u, d), (v, _) = z_ab1[m], z_1[m]
        w = 1 << m
        num = (w - 1) * u + w * v
        yield (num if m % 2 else -num), m * w * d * s_top


def _value_at_one_tail(order: int, alpha):
    """c_m of log P_n(1): (-1)^m/m [zeta(-m, alpha+1) - zeta(-m)]."""
    s, (a,) = _over_common_denominator(alpha)
    s_top, (z_1, z_a1) = _rows(order + 1, s, a + s)
    for m in range(1, order + 1):
        (u, d), (v, _) = z_a1[m], z_1[m]
        num = u - v
        yield (-num if m % 2 else num), m * d * s_top


def _discriminant_tail(order: int, alpha, beta):
    """c_m of log D_n: (-1)^(m-1)/m * Psi_m(alpha, beta), with the bracket

        Psi_m = -(2m+1)/(m+1) zeta(-m-1) - 2 zeta(-m)
                + a1 zeta(-m, a1) - zeta(-m-1, a1)/(m+1)
                + b1 zeta(-m, b1) - zeta(-m-1, b1)/(m+1)
                - ((2 - 2^-m) m + 1 - 2^-m)/(m+1) zeta(-m-1, a1+b1-1)
                + (a1 + b1 - 2)(1 - 2^-m) zeta(-m, a1+b1-1),

    a1 = alpha + 1, b1 = beta + 1.  (With this sign the truncation error
    decays at the next tail order and the tails compose exactly to the
    potential-energy expansion.)  Over (m+1) 2^m d_(m+1) S^top the
    zeta(-m-1) terms have the numerator F, over 2^m S d_m S^top the
    zeta(-m) terms have G."""
    s, (a, b) = _over_common_denominator(alpha, beta)
    s_top, (z_1, z_a1, z_b1, z_ab1) = _rows(order + 2, s, a + s, b + s, a + b + s)
    for m in range(1, order + 1):
        w = 1 << m
        (f1, d1), (fa, _), (fb, _), (fab, _) = z_1[m + 1], z_a1[m + 1], z_b1[m + 1], z_ab1[m + 1]
        f = (-(2 * m + 1) * w * f1 - w * (fa + fb)
             - ((2 * w - 1) * m + w - 1) * fab)
        (g1, d0), (ga, _), (gb, _), (gab, _) = z_1[m], z_a1[m], z_b1[m], z_ab1[m]
        g = w * (-2 * s * g1 + (a + s) * ga + (b + s) * gb) + (w - 1) * (a + b) * gab
        num = f * s * d0 + (m + 1) * d1 * g
        yield (num if m % 2 else -num), m * (m + 1) * w * s * d0 * d1 * s_top


def _potential_h(m: int, w: int, z_1, z_p, z_q, z_pq) -> int:
    """2^m d_(m+1) S^top H_m, with H_m(p, q) = zeta(-m-1) + zeta(-m-1, 2p)
    + zeta(-m-1, 2q) + (1 - 2^-m) zeta(-m-1, 2p+2q-1)."""
    return w * (z_1[m + 1][0] + z_p[m + 1][0] + z_q[m + 1][0]) + (w - 1) * z_pq[m + 1][0]


def _potential_tail(order: int, p, q):
    """c_m of the potential energy: (-1)^(m-1)/(m(m+1)) H_m(p, q)."""
    s, (p1, q1) = _over_common_denominator(p, q)
    s_top, rows = _rows(order + 2, s, 2 * p1, 2 * q1, 2 * (p1 + q1) - s)
    for m in range(1, order + 1):
        w = 1 << m
        num = _potential_h(m, w, *rows)
        yield (num if m % 2 else -num), m * (m + 1) * w * rows[0][m + 1][1] * s_top


def _elliptic_tail(order: int, p, q):
    """c_m of the elliptic logarithmic energy: (-1)^(m-1)/m H'_m(p, q), with

        H'_m = H_m/(m+1) - 2p zeta(-m, 2p) - 2q zeta(-m, 2q)
               - 2 (1 - 2^-m)(p + q) zeta(-m, 2p+2q-1);

    the last three terms have the numerator e over 2^m S d_m S^top."""
    s, (p1, q1) = _over_common_denominator(p, q)
    p2, q2 = 2 * p1, 2 * q1
    s_top, rows = _rows(order + 2, s, p2, q2, p2 + q2 - s)
    _, z_p, z_q, z_pq = rows
    for m in range(1, order + 1):
        w = 1 << m
        d0, d1 = rows[0][m][1], rows[0][m + 1][1]
        e = w * (p2 * z_p[m][0] + q2 * z_q[m][0]) + (w - 1) * (p2 + q2) * z_pq[m][0]
        num = _potential_h(m, w, *rows) * s * d0 - (m + 1) * d1 * e
        yield (num if m % 2 else -num), m * (m + 1) * w * s * d0 * d1 * s_top


def _interval_tail(order: int):
    """c_m of the interval energy:
    [1 - 2^-m + 4 (1 - 2^-(m+2)) B_{m+2}/(m+2)] / (m(m+1))."""
    for m in range(1, order + 1):
        b = bernoulli_number(m + 2)
        bn, bd, w = b.numerator, b.denominator, 1 << m
        yield ((w - 1) * (m + 2) * bd + (4 * w - 1) * bn), m * (m + 1) * w * (m + 2) * bd


# -- leading coefficients from integers -----------------------------------------
#
# Each kernel takes the precision prec and the exact inputs and returns the
# LEADING_KEYS coefficients as (num, den) pairs: integer combinations of the
# inputs, written over one common denominator d, and of fixed-point values
# scaled by 2^fp, fp = fixed_bits(prec).  No coefficient cancels more than
# the kernels' guard bits cover, so prec is the context's guard_prec, the
# exact_prec of a size 1; psi^(-2) near 0 and log Gamma(1 + alpha) at a tiny
# alpha add the log2(1/x) bits their own cancellation takes.


@functools.cache
def _constants(fp: int) -> tuple[int, int, int]:
    """(log 2, log pi, log A) as integers scaled by 2^fp."""
    return ln2_fixed(fp), log_fixed(pi_fixed(fp + 8), -fp - 8, fp), log_glaisher_fixed(fp)


def _psi2(num: int, den: int, prec: int, fp: int) -> tuple[int, int]:
    """(psi^(-2)(x), x log Gamma(x) - psi^(-2)(x)) at x = num/den, rounded
    at prec bits (exactly, for 2p at a float p), as integers scaled by 2^fp."""
    fx, psi2, endpoint = psi2_fixed(round_ratio(num, den, prec), prec)
    return psi2 >> (fx - fp), endpoint >> (fx - fp)


def _lambda_kernel(prec, a, b):
    """The constant (a + b) log 2 - (log pi)/2 over 2 d 2^fp."""
    fp = fixed_bits(prec)
    ln2, log_pi, _ = _constants(fp)
    d, (a, b) = _over_common_denominator(a, b)
    one = 1 << fp
    return ((0, 1), (0, 1), (ln2, one), (-1, 2), (2 * (a + b) * ln2 - d * log_pi, 2 * d * one))


def _value_at_one_kernel(prec, alpha):
    """log Gamma(alpha + 1) runs with log2(1/|alpha|) more bits where
    |alpha| < 1, for its value of about -0.58 alpha."""
    a, d = integer_ratio(alpha)
    prec += max(0, d.bit_length() - abs(a).bit_length())
    lg, _ = memo(log_gamma_g_fixed, round_ratio(a + d, d, prec), prec)
    return (0, 1), (0, 1), (0, 1), (a, d), (-lg, 1 << fixed_bits(prec))


def _discriminant_kernel(prec, alpha, beta):
    """The constant -1/8 - (a + b + 1/2)^2/2 + (11/6 + (a + b)^2)/2 log 2
    + log pi + 3 log A + E(a + 1) + E(b + 1), E(x) = x log Gamma(x)
    - psi^(-2)(x), over 48 d^2 2^fp."""
    fp = fixed_bits(prec)
    ln2, log_pi, log_a = _constants(fp)
    d, (a, b) = _over_common_denominator(alpha, beta)
    one, ab = 1 << fp, a + b
    ends = sum(_psi2(x + d, d, prec, fp)[1] for x in (a, b))
    const = (-6 * (d * d + (2 * ab + d) ** 2) * one + 4 * (11 * d * d + 6 * ab * ab) * ln2
             + 48 * d * d * (log_pi + 3 * log_a + ends))
    return ((ln2, one), (0, 1), (2 * ab * ln2 - d * log_pi, d * one),
            (5 * d * d - 2 * ((a + d) ** 2 + (b + d) ** 2), 4 * d * d), (const, 48 * d * d * one))


def _potential_kernel(prec, p, q):
    """The constant 2((p + q - 1)^2 - 11/24) log 2 - (p + q) log pi - 3 log A
    + psi^(-2)(2p) + psi^(-2)(2q) over 24 d^2 2^fp."""
    fp = fixed_bits(prec)
    ln2, log_pi, log_a = _constants(fp)
    d, (p, q) = _over_common_denominator(p, q)
    one, s = 1 << fp, p + q
    psi2 = sum(_psi2(2 * x, d, prec, fp)[0] for x in (p, q))
    const = (2 * (24 * (s - d) ** 2 - 11 * d * d) * ln2 - 24 * d * s * log_pi
             + 24 * d * d * (psi2 - 3 * log_a))
    return ((ln2, one), (-1, 1), (2 * (s - d) * ln2, d * one),
            (-((4 * p - d) ** 2 + (4 * q - d) ** 2), 8 * d * d), (const, 24 * d * d * one))


def _elliptic_kernel(prec, p, q):
    """The constant -2((p + q)^2 - 13/24) log 2 - 3 log A - E(2p) - E(2q),
    E as in :func:`_discriminant_kernel`, over 24 d^2 2^fp."""
    fp = fixed_bits(prec)
    ln2, _, log_a = _constants(fp)
    d, (p, q) = _over_common_denominator(p, q)
    one = 1 << fp
    ends = sum(_psi2(2 * x, d, prec, fp)[1] for x in (p, q))
    const = -2 * (24 * (p + q) ** 2 - 13 * d * d) * ln2 - 24 * d * d * (3 * log_a + ends)
    return ((ln2, one), (-1, 1), (-2 * ln2, one), (8 * (p * p + q * q) - d * d, 4 * d * d),
            (const, 24 * d * d * one))


def _interval_kernel(prec, a, b):
    """Leading coefficients of the minimal N-point energy of [a, b]:
    W N^2 - N log N - (log 2 + W) N - (log N)/4 + 13 log 2 / 12 - 3 log A,
    with W = -log((b - a)/4), minus the log of the capacity, from the
    exact ends."""
    fp = fixed_bits(prec)
    ln2, _, log_a = _constants(fp)
    d, (a, b) = _over_common_denominator(a, b)
    _, man, exp, _ = round_ratio(b - a, 4 * d, fp + 8)
    log_cap, one = log_fixed(man, exp, fp), 1 << fp
    return ((-log_cap, one), (-1, 1), (log_cap - ln2, one), (-1, 4),
            (13 * ln2 - 36 * log_a, 12 * one))


# -- expansion builders ------------------------------------------------------


def _expansion(kind: str, params: dict, order: int, kernel, values: tuple, tail) -> Expansion:
    """The expansion ``kind`` at ``params``, to ``order`` tail terms: each
    (num, den) of ``tail(order)`` and of ``kernel(prec, *values)`` rounded
    once by :meth:`~fekete.precision.Context.ratio`, prec the context's
    guard precision (the same for every input, so that the memo key of a
    log Gamma / log G value does not depend on the other input)."""
    _check_order(order)
    ctx = active()
    coeffs = tuple(ctx.ratio(num, den) for num, den in tail(order))
    leading = tuple(ctx.ratio(num, den) for num, den in kernel(ctx.exact_prec(1), *values))
    return Expansion(kind=kind, params={k: float(v) for k, v in params.items()},
                     leading=dict(zip(LEADING_KEYS, leading)), tail=coeffs)


def leading_coeff_expansion(params: JacobiParams, order: int) -> Expansion:
    """log lambda_n ~ (log 2) n - (log n)/2 + (alpha+beta) log 2 - (log pi)/2 + tail."""
    a, b = params.alpha, params.beta
    return _expansion("log_lambda", vars(params), order, _lambda_kernel, (a, b),
                      lambda order: _lambda_tail(order, a, b))


def value_at_one_expansion(params: JacobiParams, order: int) -> Expansion:
    """log P_n(1) ~ alpha log n - log Gamma(alpha+1) + tail."""
    a = params.alpha
    return _expansion("log_P1", vars(params), order, _value_at_one_kernel, (a,),
                      lambda order: _value_at_one_tail(order, a))


def discriminant_expansion(params: JacobiParams, order: int) -> Expansion:
    """log D_n ~ (log 2) n^2 + (2(a+b) log 2 - log pi) n
    + (5/2 - (a+1)^2 - (b+1)^2)/2 * log n + C(a, b) + tail.

    Every coefficient is symmetric in (a, b) as written, so swapping the
    exponents gives the same rounded values.
    """
    a, b = params.alpha, params.beta
    return _expansion("log_D", vars(params), order, _discriminant_kernel, (a, b),
                      lambda order: _discriminant_tail(order, a, b))


def potential_energy_expansion(p: float, q: float, order: int) -> Expansion:
    """Minimal potential energy under endpoint charges (p, q):
    (log 2) n^2 - n log n + 2 (log 2)(p+q-1) n
    - 2 [(p-1/4)^2 + (q-1/4)^2] log n + C_1(p, q) + tail.

    The symmetric case p = q is the same assembly (the specialised
    symmetric-field formulas agree coefficient by coefficient).
    """
    check_finite_above(0, "charges", p=p, q=q)
    return _expansion("potential", {"p": p, "q": q}, order, _potential_kernel, (p, q),
                      lambda order: _potential_tail(order, p, q))


def elliptic_log_energy_expansion(p: float, q: float, order: int) -> Expansion:
    """Logarithmic energy of the elliptic (p,q)-Fekete configuration:
    (log 2) n^2 - n log n - 2 (log 2) n + 2 (p^2 + q^2 - 1/8) log n
    + C_1'(p, q) + tail."""
    check_finite_above(0, "charges", p=p, q=q)
    return _expansion("elliptic_E0", {"p": p, "q": q}, order, _elliptic_kernel, (p, q),
                      lambda order: _elliptic_tail(order, p, q))


def interval_energy_expansion(order: int) -> Expansion:
    """Minimal logarithmic N-point energy of [-1, 1]:
    (log 2) N^2 - N log N - 2 (log 2) N - (log N)/4
    + 13 log 2 / 12 - 3 log A + tail."""
    return _expansion("interval_E0", {}, order, _interval_kernel, (-1, 1), _interval_tail)


def general_interval_energy_expansion(a: float, b: float, order: int) -> Expansion:
    """Same as the [-1, 1] expansion with N^2 coefficient W([a, b]) and N
    coefficient -(log 2 + W([a, b])); all other terms are capacity-independent."""
    IntervalSpec(a, b)  # validates the ends
    return _expansion("general_interval_E0", {"a": a, "b": b}, order, _interval_kernel,
                      (a, b), _interval_tail)


#: bits beyond those of the result and of its error bound that a truncation
#: is first formed with: the rounding is then undecided, and formed again with
#: more bits, about once in 2^18 partial sums
_TRUNCATION_GUARD = 20


def _binary(x) -> tuple[int, int]:
    """(man, exp) with x = man 2^exp exactly, for an int, float or mpf
    coefficient: its :func:`~fekete.precision.integer_ratio` has a power
    of two for denominator."""
    num, den = integer_ratio(x)
    if den & (den - 1):
        raise TypeError(f"coefficient {x!r} is not a binary rational")
    return num, 1 - den.bit_length()


def truncations(expansion: Expansion, n: int, order: int | None = None) -> tuple[Scalar, ...]:
    """Values of the expansion at n truncated after 0, 1, ..., ``order`` tail
    terms, each the exact value of that truncated series, with the
    expansion's rounded coefficients as the binary rationals they are,
    rounded once.

    With A = c_n2 n^2 + c_n n + c_const and B = c_nlogn n + c_logn exact,
    the partial sums A + B log n + sum_{m<=j} c_m n^-m are fixed-point
    integers at F fractional bits, from one log n within 2 units of 2^-F
    and one floor division per tail term, and each is rounded by
    :meth:`~fekete.precision.Context.fixed` with the bound those steps
    leave.  F covers the largest leading term's bits, the bound's and
    :data:`_TRUNCATION_GUARD`; where the sums cancel, or a sum lies too
    near a rounding midpoint, all are formed again with the bits missing.
    B log n is transcendental for B != 0, so no sum is a midpoint and the
    retries end; with B = 0 the sums are rational, and rounded exactly.
    """
    n = check_size(n, "n", 2)
    order = expansion.order if order is None else check_size(order, "order", 0)
    if order > expansion.order:
        raise CapacityError(
            f"truncation order {order} outside the built tail length {expansion.order}"
        )
    ctx = active()
    (m2, e2), (m1, e1), (m0, e0), (ml, el), (mc, ec) = map(
        _binary, (expansion.leading[k] for k in LEADING_KEYS))
    tail = [_binary(c) for c in expansion.tail[:order]]
    a_exp, b_exp = min(e2, e0, ec), min(e1, el)
    big_a = (m2 * n * n << (e2 - a_exp)) + (m0 * n << (e0 - a_exp)) + (mc << (ec - a_exp))
    big_b = (m1 * n << (e1 - b_exp)) + (ml << (el - b_exp))
    if not big_b:
        total, sums = Fraction(big_a) * Fraction(2) ** a_exp, []
        for m, (man, exp) in enumerate([(0, 0), *tail]):
            total += Fraction(man) * Fraction(2) ** exp / n ** m
            sums.append(ctx.ratio(total.numerator, total.denominator))
        return tuple(sums)
    mag = max(big_a.bit_length() + a_exp,
              big_b.bit_length() + b_exp + n.bit_length().bit_length())
    fp = max(0, ctx.prec + _TRUNCATION_GUARD + max(0, big_b.bit_length() + b_exp + 2) - mag)
    while True:
        shift = a_exp + fp
        value = big_a << shift if shift >= 0 else big_a >> -shift
        err = shift < 0
        shift = b_exp
        term = big_b * log_fixed(n, 0, fp)
        if shift >= 0:
            value += term << shift
            err += 2 * abs(big_b) << shift
        else:
            value += term >> -shift
            err += (2 * abs(big_b) >> -shift) + 2
        fixed = [(value, err)]
        npow = 1
        for man, exp in tail:
            npow *= n
            shift = exp + fp
            value += (man << shift) // npow if shift >= 0 else man // (npow << -shift)
            err += 1
            fixed.append((value, err))
        sums = [ctx.fixed(v, fp, e) for v, e in fixed]
        if not any(s is None for s in sums):
            return tuple(sums)
        fp += max(16, *(ctx.prec + _TRUNCATION_GUARD + e.bit_length() - v.bit_length()
                        for v, e in fixed))


def evaluate_expansion(expansion: Expansion, n: int, order: int | None = None) -> Scalar:
    """Numeric value of the leading terms plus the tail truncated at ``order``:
    the last of :func:`truncations`."""
    return truncations(expansion, n, order)[-1]


# -- serialization (the CLI wire format) -------------------------------------


def _scalar_to_json(x: Scalar):
    """A float as it is; an mpf as the decimal string with the digits that
    recover it at the active precision."""
    if isinstance(x, float):
        return x
    return to_str(x._mpf_, repr_dps(active().prec))


def expansion_to_json(expansion: Expansion) -> dict:
    """JSON-ready dict: {kind, params, leading: named map, tail: array}."""
    return {
        "kind": expansion.kind,
        "params": {k: float(v) for k, v in expansion.params.items()},
        "leading": {k: _scalar_to_json(expansion.leading[k]) for k in LEADING_KEYS},
        "tail": [_scalar_to_json(c) for c in expansion.tail],
    }
