"""Truncated Poincare-type expansions.

Each builder returns an :class:`Expansion` holding the leading coefficients
(of n^2, n log n, n, log n, 1, under fixed keys) and the tail coefficients
c_m of n^(-m) up to a requested order.  The leading coefficients are one
mpf kernel of the exact inputs (with log 2 and log pi from mpmath, log A,
log-gamma, log Barnes G and psi^(-2) from the fixed-point kernel of
:mod:`fekete.specfun`), evaluated at guard digits by
:meth:`~fekete.precision.Context.guarded` and rounded once each.  Tail
coefficients are exact rationals of Bernoulli data, each assembled as one
integer numerator over one integer denominator and rounded once into the
active precision.

The series are asymptotic (divergent in general): evaluation never chooses
a truncation order by itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath.libmp import repr_dps, to_str

from .energy import IntervalSpec
from .exceptions import CapacityError, check_finite_above, check_size
from .jacobi import JacobiParams
from .precision import Scalar, active, integer_ratio
from .specfun import bernoulli_number, log_glaisher_mp, negapolygamma2_mp, psi2_fixed
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


# -- leading kernels: mpf in, the LEADING_KEYS coefficients out ---------------


def _endpoint(x):
    """x log Gamma(x) - psi^(-2)(x) = log G(1 + x) - x(1 - x)/2 - (x/2) log 2pi:
    what one endpoint exponent (x = alpha + 1 or 2p) adds to the
    discriminant and elliptic constants."""
    fp, _, value = psi2_fixed(x)
    return mpmath.mpf((value, -fp))


def _lambda_kernel(a, b):
    ln2 = mpmath.log(2)
    return (0, 0, ln2, -0.5, (a + b) * ln2 - mpmath.log(mpmath.pi) / 2)


def _value_at_one_kernel(a):
    return (0, 0, 0, a, -mpmath.loggamma(a + 1))


def _discriminant_kernel(a, b):
    ln2, log_pi = mpmath.log(2), mpmath.log(mpmath.pi)
    ab = a + b
    const = (-mpmath.mpf(1) / 8 - (ab + 0.5) ** 2 / 2
             + (mpmath.mpf(11) / 6 + ab * ab) / 2 * ln2
             + log_pi + 3 * log_glaisher_mp()
             + (_endpoint(a + 1) + _endpoint(b + 1)))
    logn = (2.5 - ((a + 1) ** 2 + (b + 1) ** 2)) / 2
    return (ln2, 0, 2 * ab * ln2 - log_pi, logn, const)


def _potential_kernel(p, q):
    ln2 = mpmath.log(2)
    s = p + q
    const = (2 * ((s - 1) ** 2 - mpmath.mpf(11) / 24) * ln2 - s * mpmath.log(mpmath.pi)
             - 3 * log_glaisher_mp()
             + (negapolygamma2_mp(2 * p) + negapolygamma2_mp(2 * q)))
    logn = -2 * ((p - 0.25) ** 2 + (q - 0.25) ** 2)
    return (ln2, -1, 2 * (s - 1) * ln2, logn, const)


def _elliptic_kernel(p, q):
    ln2 = mpmath.log(2)
    const = (-2 * ((p + q) ** 2 - mpmath.mpf(13) / 24) * ln2
             - 3 * log_glaisher_mp()
             - (_endpoint(2 * p) + _endpoint(2 * q)))
    return (ln2, -1, -2 * ln2, 2 * (p * p + q * q - 0.125), const)


def _interval_kernel(a, b):
    """Leading coefficients of the minimal N-point energy of [a, b]:
    W N^2 - N log N - (log 2 + W) N - (log N)/4 + 13 log 2 / 12 - 3 log A,
    with W = -log((b - a)/4), minus the log of the capacity."""
    ln2 = mpmath.log(2)
    w = -mpmath.log((b - a) / 4)
    return (w, -1, -(ln2 + w), -0.25, 13 * ln2 / 12 - 3 * log_glaisher_mp())


# -- expansion builders ------------------------------------------------------


def _expansion(kind: str, params: dict, order: int, kernel, values: tuple, tail) -> Expansion:
    """The expansion ``kind`` at ``params``, to ``order`` tail terms: the
    leading coefficients ``kernel(*values)``, evaluated once by
    :meth:`~fekete.precision.Context.guarded` and each rounded once (at
    plain guard digits, so that the memo key of a log Gamma / log G value
    does not depend on the other input), and each (num, den) of
    ``tail(order)`` rounded once by :meth:`~fekete.precision.Context.ratio`."""
    _check_order(order)
    ctx = active()
    coeffs = tuple(ctx.ratio(num, den) for num, den in tail(order))
    return Expansion(kind=kind, params={k: float(v) for k, v in params.items()},
                     leading=dict(zip(LEADING_KEYS, ctx.guarded(kernel, *values))),
                     tail=coeffs)


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


def truncations(expansion: Expansion, n: int, order: int | None = None) -> tuple[Scalar, ...]:
    """Values of the expansion at n truncated after 0, 1, ..., ``order`` tail
    terms, as the running partial sums of one pass.

    Deterministic evaluation order: leading terms descending (n^2, n log n,
    n, log n, const), then tail ascending in m; the sum through tail term m
    is the sum through m - 1 plus that term.
    """
    n = check_size(n, "n", 2)
    order = expansion.order if order is None else check_size(order, "order", 0)
    if order > expansion.order:
        raise CapacityError(
            f"truncation order {order} outside the built tail length {expansion.order}"
        )
    ctx = active()
    nn = ctx.real(n)
    logn = ctx.log(nn)
    lead = expansion.leading
    value = lead["n2"] * nn * nn
    value += lead["nlogn"] * nn * logn
    value += lead["n"] * nn
    value += lead["logn"] * logn
    value += lead["const"]
    sums = [value]
    npow = nn
    for m in range(order):
        value += expansion.tail[m] / npow
        npow *= nn
        sums.append(value)
    return tuple(sums)


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
