"""Truncated Poincare-type expansions.

Each builder returns an :class:`Expansion` holding the leading coefficients
(of n^2, n log n, n, log n, 1, under fixed keys) and the tail coefficients
c_m of n^(-m) up to a requested order.  The leading coefficients are one
mpf kernel of the exact inputs (with log 2 and log pi from mpmath, log A,
log-gamma, log Barnes G and psi^(-2) from the fixed-point kernel of
:mod:`fekete.specfun`), evaluated at guard digits by
:meth:`~fekete.precision.Context.guarded` and rounded once each.  Tail
coefficients are assembled symbolically from exact-rational Bernoulli data
and rounded once into the active precision.

The series are asymptotic (divergent in general): evaluation never chooses
a truncation order by itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .energy import IntervalSpec
from .exceptions import CapacityError, check_finite_above, check_size
from .jacobi import JacobiParams
from .precision import Scalar, active, as_fraction
from .specfun import bernoulli_number, log_glaisher_mp, negapolygamma2_mp, psi2_fixed
from .specfun import hurwitz_zeta_negint_fraction as _zeta

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


_ONE = Fraction(1)


def _half_pow(m: int) -> Fraction:
    """1 - 2^(-m)."""
    return _ONE - Fraction(1, 2 ** m)


# -- exact-rational tail coefficients ---------------------------------------


def lambda_tail_fraction(m: int, alpha, beta) -> Fraction:
    """c_m of log lambda_n: (-1)^(m-1)/m [(1-2^-m) zeta(-m, a+b+1) + zeta(-m)]."""
    ab1 = as_fraction(alpha) + as_fraction(beta) + 1
    value = (_half_pow(m) * _zeta(m, ab1) + _zeta(m, _ONE)) / m
    return value if m % 2 else -value


def value_at_one_tail_fraction(m: int, alpha) -> Fraction:
    """c_m of log P_n(1): (-1)^m/m [zeta(-m, alpha+1) - zeta(-m)]."""
    a1 = as_fraction(alpha) + 1
    value = (_zeta(m, a1) - _zeta(m, _ONE)) / m
    return -value if m % 2 else value


def discriminant_psi_fraction(m: int, alpha, beta) -> Fraction:
    """The bracket Psi_m(alpha, beta) of the discriminant expansion."""
    a1 = as_fraction(alpha) + 1
    b1 = as_fraction(beta) + 1
    ab1 = a1 + b1 - 1
    half = _half_pow(m)
    value = -Fraction(2 * m + 1, m + 1) * _zeta(m + 1, _ONE) - 2 * _zeta(m, _ONE)
    value += a1 * _zeta(m, a1) - _zeta(m + 1, a1) / (m + 1)
    value += b1 * _zeta(m, b1) - _zeta(m + 1, b1) / (m + 1)
    value -= ((2 - Fraction(1, 2 ** m)) * m + half) / (m + 1) * _zeta(m + 1, ab1)
    value += (ab1 - 1) * half * _zeta(m, ab1)
    return value


def discriminant_tail_fraction(m: int, alpha, beta) -> Fraction:
    """c_m of log D_n: (-1)^(m-1)/m * Psi_m(alpha, beta).

    (With this sign the truncation error decays at the next tail order and
    the tails compose exactly to the potential-energy expansion.)
    """
    value = discriminant_psi_fraction(m, alpha, beta) / m
    return value if m % 2 else -value


def potential_h_fraction(m: int, p, q) -> Fraction:
    """H_m(p, q) = zeta(-m-1) + zeta(-m-1, 2p) + zeta(-m-1, 2q)
    + (1 - 2^-m) zeta(-m-1, 2p+2q-1)."""
    p = as_fraction(p)
    q = as_fraction(q)
    return (
        _zeta(m + 1, _ONE)
        + _zeta(m + 1, 2 * p)
        + _zeta(m + 1, 2 * q)
        + _half_pow(m) * _zeta(m + 1, 2 * p + 2 * q - 1)
    )


def potential_tail_fraction(m: int, p, q) -> Fraction:
    """c_m of the potential energy: (-1)^(m-1)/(m(m+1)) H_m(p, q)."""
    value = potential_h_fraction(m, p, q) / (m * (m + 1))
    return value if m % 2 else -value


def elliptic_h_fraction(m: int, p, q) -> Fraction:
    """H'_m(p, q) of the elliptic-configuration logarithmic energy."""
    p = as_fraction(p)
    q = as_fraction(q)
    half = _half_pow(m)
    value = potential_h_fraction(m, p, q) / (m + 1)
    value -= 2 * p * _zeta(m, 2 * p)
    value -= 2 * q * _zeta(m, 2 * q)
    value -= 2 * half * (p + q) * _zeta(m, 2 * p + 2 * q - 1)
    return value


def elliptic_tail_fraction(m: int, p, q) -> Fraction:
    """c_m of the elliptic logarithmic energy: (-1)^(m-1)/m H'_m(p, q)."""
    value = elliptic_h_fraction(m, p, q) / m
    return value if m % 2 else -value


def interval_tail_fraction(m: int) -> Fraction:
    """c_m of the interval energy:
    [1 - 2^-m + 4 (1 - 2^-(m+2)) B_{m+2}/(m+2)] / (m(m+1))."""
    bracket = _half_pow(m) + 4 * _half_pow(m + 2) * bernoulli_number(m + 2) / (m + 2)
    return bracket / (m * (m + 1))


# -- expansion builders ------------------------------------------------------


def _tail(order: int, coeff_fn) -> tuple[Scalar, ...]:
    ctx = active()
    return tuple(ctx.real(coeff_fn(m)) for m in range(1, order + 1))


def _leading(kernel, *values) -> dict[str, Scalar]:
    """``kernel(*values)``: the leading coefficients as mpf, in
    :data:`LEADING_KEYS` order, each rounded once.  At plain guard digits
    (no ``size``), so the memo key of a log Gamma / log G value does not
    depend on the other input."""
    return dict(zip(LEADING_KEYS, active().guarded(kernel, *values)))


def _endpoint(x):
    """x log Gamma(x) - psi^(-2)(x) = log G(1 + x) - x(1 - x)/2 - (x/2) log 2pi:
    what one endpoint exponent (x = alpha + 1 or 2p) adds to the
    discriminant and elliptic constants."""
    fp, _, value = psi2_fixed(x)
    return mpmath.mpf((value, -fp))


def leading_coeff_expansion(params: JacobiParams, order: int) -> Expansion:
    """log lambda_n ~ (log 2) n - (log n)/2 + (alpha+beta) log 2 - (log pi)/2 + tail."""
    _check_order(order)

    def kernel(a, b):
        ln2 = mpmath.log(2)
        return (0, 0, ln2, -0.5, (a + b) * ln2 - mpmath.log(mpmath.pi) / 2)

    tail = _tail(order, lambda m: lambda_tail_fraction(m, params.alpha, params.beta))
    return Expansion(
        kind="log_lambda",
        params={"alpha": float(params.alpha), "beta": float(params.beta)},
        leading=_leading(kernel, params.alpha, params.beta),
        tail=tail,
    )


def value_at_one_expansion(params: JacobiParams, order: int) -> Expansion:
    """log P_n(1) ~ alpha log n - log Gamma(alpha+1) + tail."""
    _check_order(order)

    def kernel(a):
        return (0, 0, 0, a, -mpmath.loggamma(a + 1))

    tail = _tail(order, lambda m: value_at_one_tail_fraction(m, params.alpha))
    return Expansion(
        kind="log_P1",
        params={"alpha": float(params.alpha), "beta": float(params.beta)},
        leading=_leading(kernel, params.alpha),
        tail=tail,
    )


def discriminant_expansion(params: JacobiParams, order: int) -> Expansion:
    """log D_n ~ (log 2) n^2 + (2(a+b) log 2 - log pi) n
    + (5/2 - (a+1)^2 - (b+1)^2)/2 * log n + C(a, b) + tail.

    Every coefficient is symmetric in (a, b) as written, so swapping the
    exponents gives the same rounded values.
    """
    _check_order(order)

    def kernel(a, b):
        ln2, log_pi = mpmath.log(2), mpmath.log(mpmath.pi)
        ab = a + b
        const = (-mpmath.mpf(1) / 8 - (ab + 0.5) ** 2 / 2
                 + (mpmath.mpf(11) / 6 + ab * ab) / 2 * ln2
                 + log_pi + 3 * log_glaisher_mp()
                 + (_endpoint(a + 1) + _endpoint(b + 1)))
        logn = (2.5 - ((a + 1) ** 2 + (b + 1) ** 2)) / 2
        return (ln2, 0, 2 * ab * ln2 - log_pi, logn, const)

    tail = _tail(order, lambda m: discriminant_tail_fraction(m, params.alpha, params.beta))
    return Expansion(
        kind="log_D",
        params={"alpha": float(params.alpha), "beta": float(params.beta)},
        leading=_leading(kernel, params.alpha, params.beta),
        tail=tail,
    )


def potential_energy_expansion(p: float, q: float, order: int) -> Expansion:
    """Minimal potential energy under endpoint charges (p, q):
    (log 2) n^2 - n log n + 2 (log 2)(p+q-1) n
    - 2 [(p-1/4)^2 + (q-1/4)^2] log n + C_1(p, q) + tail.

    The symmetric case p = q is the same assembly (the specialised
    symmetric-field formulas agree coefficient by coefficient).
    """
    _check_order(order)
    check_finite_above(0, "charges", p=p, q=q)

    def kernel(p, q):
        ln2 = mpmath.log(2)
        s = p + q
        const = (2 * ((s - 1) ** 2 - mpmath.mpf(11) / 24) * ln2 - s * mpmath.log(mpmath.pi)
                 - 3 * log_glaisher_mp()
                 + (negapolygamma2_mp(2 * p) + negapolygamma2_mp(2 * q)))
        logn = -2 * ((p - 0.25) ** 2 + (q - 0.25) ** 2)
        return (ln2, -1, 2 * (s - 1) * ln2, logn, const)

    tail = _tail(order, lambda m: potential_tail_fraction(m, p, q))
    return Expansion(kind="potential", params={"p": float(p), "q": float(q)},
                     leading=_leading(kernel, p, q), tail=tail)


def elliptic_log_energy_expansion(p: float, q: float, order: int) -> Expansion:
    """Logarithmic energy of the elliptic (p,q)-Fekete configuration:
    (log 2) n^2 - n log n - 2 (log 2) n + 2 (p^2 + q^2 - 1/8) log n
    + C_1'(p, q) + tail."""
    _check_order(order)
    check_finite_above(0, "charges", p=p, q=q)

    def kernel(p, q):
        ln2 = mpmath.log(2)
        const = (-2 * ((p + q) ** 2 - mpmath.mpf(13) / 24) * ln2
                 - 3 * log_glaisher_mp()
                 - (_endpoint(2 * p) + _endpoint(2 * q)))
        return (ln2, -1, -2 * ln2, 2 * (p * p + q * q - 0.125), const)

    tail = _tail(order, lambda m: elliptic_tail_fraction(m, p, q))
    return Expansion(kind="elliptic_E0", params={"p": float(p), "q": float(q)},
                     leading=_leading(kernel, p, q), tail=tail)


def _interval_kernel(a, b):
    """Leading coefficients of the minimal N-point energy of [a, b]:
    W N^2 - N log N - (log 2 + W) N - (log N)/4 + 13 log 2 / 12 - 3 log A,
    with W = -log((b - a)/4), minus the log of the capacity."""
    ln2 = mpmath.log(2)
    w = -mpmath.log((b - a) / 4)
    return (w, -1, -(ln2 + w), -0.25, 13 * ln2 / 12 - 3 * log_glaisher_mp())


def interval_energy_expansion(order: int) -> Expansion:
    """Minimal logarithmic N-point energy of [-1, 1]:
    (log 2) N^2 - N log N - 2 (log 2) N - (log N)/4
    + 13 log 2 / 12 - 3 log A + tail."""
    _check_order(order)
    return Expansion(kind="interval_E0", params={}, leading=_leading(_interval_kernel, -1, 1),
                     tail=_tail(order, interval_tail_fraction))


def general_interval_energy_expansion(a: float, b: float, order: int) -> Expansion:
    """Same as the [-1, 1] expansion with N^2 coefficient W([a, b]) and N
    coefficient -(log 2 + W([a, b])); all other terms are capacity-independent."""
    IntervalSpec(a, b)  # validates the ends
    _check_order(order)
    return Expansion(kind="general_interval_E0", params={"a": float(a), "b": float(b)},
                     leading=_leading(_interval_kernel, a, b),
                     tail=_tail(order, interval_tail_fraction))


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
    if isinstance(x, float):
        return x
    return mpmath.nstr(x, mpmath.libmp.repr_dps(mpmath.mp.prec))


def expansion_to_json(expansion: Expansion) -> dict:
    """JSON-ready dict: {kind, params, leading: named map, tail: array}."""
    return {
        "kind": expansion.kind,
        "params": {k: float(v) for k, v in expansion.params.items()},
        "leading": {k: _scalar_to_json(expansion.leading[k]) for k in LEADING_KEYS},
        "tail": [_scalar_to_json(c) for c in expansion.tail],
    }
