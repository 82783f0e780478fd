"""Shared numeric helpers for the test suite."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import mpmath

from fekete import specfun
from fekete.asym import LEADING_KEYS, Expansion
from fekete.exceptions import DomainError
from fekete.precision import EXT, active

from _tails import as_fraction, hurwitz_zeta_negint_fraction

#: the expansion kinds that ``expansion_to_json`` writes
KINDS = (
    "log_lambda",
    "log_P1",
    "log_D",
    "potential",
    "elliptic_E0",
    "interval_E0",
    "general_interval_E0",
)


def rel_close(actual, expected, rtol: float, floor: float = 1e-300) -> bool:
    """|actual - expected| <= rtol * max(|actual|, |expected|, floor)."""
    actual = float(actual)
    expected = float(expected)
    scale = max(abs(actual), abs(expected), floor)
    return abs(actual - expected) <= rtol * scale


def fit_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n)."""
    xs = [math.log(float(n)) for n in ns]
    ys = [math.log(max(float(e), 5e-324)) for e in errors]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var


def guarded(fn, *values):
    """``fn(*values)`` with the values as mpf, evaluated by mpmath at the
    active context's guard precision, then rounded once into its scalar
    type: an mpf reference, independent of the package's integer route for
    the expansions' leading constants."""
    ctx = active()
    with mpmath.workprec(ctx.guard_prec):
        raw = fn(*(mpmath.mpf(v) for v in values))
    return ctx.real(raw)


def _constant(fn):
    """``fn()`` rounded once into the active precision; in ``ext`` under a
    working precision above the mode's (a reference under
    ``mpmath.workdps``), ``fn()`` at that precision."""
    ctx = active()
    if ctx.mode == EXT and mpmath.mp.dps > ctx.dps:
        return fn()
    return guarded(fn)


def ln2():
    """log 2 in the active precision (see :func:`_constant`)."""
    return _constant(lambda: mpmath.log(2))


def log_glaisher():
    """log A (Glaisher-Kinkelin) in the active precision (see :func:`_constant`)."""
    return _constant(lambda: mpmath.log(mpmath.glaisher))


def psi2_mp(x):
    """psi^(-2)(x), x >= 0, as mpf at mpmath's working precision, from
    ``specfun.psi2_fixed`` at that precision."""
    fp, value, _ = specfun.psi2_fixed(mpmath.mpf(x)._mpf_, mpmath.mp.prec)
    return mpmath.mpf((value, -fp))


def endpoint_mp(x):
    """x log Gamma(x) - psi^(-2)(x) as mpf at mpmath's working precision, from
    ``specfun.psi2_fixed`` at that precision."""
    fp, _, value = specfun.psi2_fixed(mpmath.mpf(x)._mpf_, mpmath.mp.prec)
    return mpmath.mpf((value, -fp))


def log_glaisher_mp():
    """log A as mpf at mpmath's working precision, from
    ``specfun.log_glaisher_fixed`` at the kernel's fixed bits for it."""
    fp = specfun.fixed_bits(mpmath.mp.prec)
    return mpmath.mpf((specfun.log_glaisher_fixed(fp), -fp))


def _scalar_from_json(v):
    ctx = active()
    if isinstance(v, str):
        return mpmath.mpf(v) if ctx.mode == EXT else float(v)
    return ctx.real(v)


def expansion_from_json(data: dict) -> Expansion:
    """The :class:`Expansion` that ``asym.expansion_to_json`` wrote, in the
    active precision."""
    if data.get("kind") not in KINDS:
        raise DomainError(f"unknown expansion kind {data.get('kind')!r}")
    leading = {k: _scalar_from_json(data["leading"][k]) for k in LEADING_KEYS}
    tail = tuple(_scalar_from_json(c) for c in data["tail"])
    return Expansion(
        kind=data["kind"],
        params={k: float(v) for k, v in data.get("params", {}).items()},
        leading=leading,
        tail=tail,
    )


def discriminant_log_product(n: int, alpha, beta):
    """log D_n^(alpha,beta) from the closed product formula, one ``fsum``
    over 4n logarithms in the active precision (the independent route for
    the closed form of ``jacobi.discriminant_log``):

    -n(n-1) log 2 + sum_{v=1..n} [ (v-2n+2) log v + (v-1) log(v+alpha)
    + (v-1) log(v+beta) + (n-v) log(v+n+alpha+beta) ].
    """
    ctx = active()
    alpha, beta = ctx.real(alpha), ctx.real(beta)
    vs = range(1, n + 1)
    return ctx.fsum(chain(
        (-n * (n - 1) * ln2(),),
        ((v - 2 * n + 2) * ctx.log(ctx.real(v)) for v in vs),
        ((v - 1) * ctx.log(v + alpha) for v in vs),
        ((v - 1) * ctx.log(v + beta) for v in vs),
        ((n - v) * ctx.log(v + n + alpha + beta) for v in vs),
    ))


def log_values_mp(n: int, ap1, bp1) -> tuple:
    """(log lambda_n, log D_n, log P_n(1), log |P_n(-1)|) of P_n^(a,b) for
    mpf ap1 = a + 1 and bp1 = b + 1, as mpf at mpmath's working precision:
    the integer combinations of ``jacobi.log_values_fixed``, but each kernel
    value's combination converted to mpf and the arguments formed by mpf
    arithmetic (the mpf route that ``log_values_fixed`` replaced)."""
    if n == 0:
        return (mpmath.mpf(0),) * 4
    prec = mpmath.mp.prec
    fp = specfun.fixed_bits(prec)
    ln2_fp = mpmath.libmp.ln2_fixed(fp)
    ab2 = ap1 + bp1
    x1, xa, xb, xs, x2s = mpmath.mpf(n + 1), n + ap1, n + bp1, (n - 1) + ab2, (2 * n - 1) + ab2
    (g1, G1), (ga, Ga), (gb, Gb), (gs, Gs), (g2s, G2s), (ga0, Ga0), (gb0, Gb0) = (
        specfun.log_gamma_g_fixed(x, prec) for x in (x1, xa, xb, xs, x2s, ap1, bp1))
    lam = -n * ln2_fp + g2s - gs - g1
    disc = 0 if n == 1 else (-n * (n - 1) * ln2_fp + (2 - n) * g1 - G1 + (n - 1) * (ga + gb)
                             - Ga - Gb + ga0 + Ga0 + gb0 + Gb0 + G2s - Gs - n * gs)
    return tuple(mpmath.mpf((v, -fp)) for v in (lam, disc, ga - ga0 - g1, gb - gb0 - g1))


def shifted_terms(m: int, n: int, offset):
    """(k + offset) log(k + offset) for k = m+1..n, in the active precision."""
    ctx = active()
    offset = ctx.real(offset)
    return ((k + offset) * ctx.log(k + offset) for k in range(m + 1, n + 1))


def logsum_shifted(m: int, n: int, offset):
    """sum_{k=m+1..n} (k + offset) log(k + offset), summed exactly by ``fsum``."""
    return active().fsum(shifted_terms(m, n, offset))


def discriminant_N_log_sum(N: int):
    """log of the N-th discriminant of [-1, 1] as one ``fsum`` over O(N)
    logarithms (the independent route for ``energy.discriminant_N_log``):

    N(N-1) log 2 + N log N + 3 sum_{k=1}^{N-1} k log k
    - sum_{k=N-1}^{2(N-1)} k log k.
    """
    ctx = active()
    return ctx.fsum(chain(
        (N * (N - 1) * ln2(), N * ctx.log(ctx.real(N))),
        (3 * t for t in shifted_terms(0, N - 1, 0)),
        (-t for t in shifted_terms(N - 2, 2 * N - 2, 0)),
    ))


def pq_discriminant_log_sum(n: int, p, q):
    """log of the n-th (p,q)-discriminant of [-1, 1] as one ``fsum`` over
    O(n) logarithms (the independent route for ``energy.pq_discriminant_log``):

    n(n+2p+2q-1) log 2
    + sum_{k=1..n} [ k log k + (k+2p-1) log(k+2p-1) + (k+2q-1) log(k+2q-1) ]
    - sum_{k=n-1..2(n-1)} (k+2p+2q) log(k+2p+2q).
    """
    ctx = active()
    p, q = ctx.real(p), ctx.real(q)
    return ctx.fsum(chain(
        (n * (n + 2 * p + 2 * q - 1) * ln2(),),
        shifted_terms(0, n, 0),
        shifted_terms(0, n, 2 * p - 1),
        shifted_terms(0, n, 2 * q - 1),
        (-t for t in shifted_terms(n - 2, 2 * n - 2, 2 * p + 2 * q)),
    ))


def bernoulli_poly_horner(m: int, x: Fraction) -> Fraction:
    """B_m(x) by the plain Fraction Horner over binom(m, k) B_{m-k}, B_j from
    ``mpmath.bernfrac``: the reference of ``_tails.bernoulli_poly_fraction`` and
of the Bernoulli rows of ``specfun.hurwitz_zeta_negint_numerators``."""
    acc = Fraction(0)
    for k in range(m, -1, -1):
        acc = acc * x + math.comb(m, k) * Fraction(*mpmath.bernfrac(m - k))
    return acc


def log_gamma_asym(x, a, order: int):
    """Poincare-type truncation of log Gamma(x + a) for fixed a, x >= 1:

    (x + a - 1/2) log x - x + log(2 pi)/2
    - sum_{m=1..order} (-1)^(m-1)/m * zeta(-m, a) * x^(-m).
    """
    ctx = active()
    x = ctx.real(x)
    frac_a = as_fraction(a)
    a = ctx.real(a)
    half_log_2pi = guarded(lambda: mpmath.log(2 * mpmath.pi)) / 2
    head = ((x + a - ctx.real(Fraction(1, 2))) * ctx.log(x), -x, half_log_2pi)
    tail = (ctx.real((-1) ** m * hurwitz_zeta_negint_fraction(m, frac_a) / m) / x ** m
            for m in range(1, order + 1))
    return ctx.fsum(chain(head, tail))


def zeta_prime_neg1_asym(x, a, order: int):
    """Truncated large-x expansion of zeta'(-1, x + a), valid for x >= 2:

    x^2 log(x)/2 - x^2/4 - zeta(0,a) x log x - zeta(-1,a) (log x + 1)
    + sum_{k=1..order-1} (-1)^k/(k(k+1)) zeta(-k-1, a) x^(-k).

    The remainder after the full sum is O(x^-order); the log x factor one
    might expect there drops out (the decay-slope tests check it).  ``a``
    may be any real; the zeta values are Bernoulli-polynomial evaluations,
    which extend the a > 0 case by the shift identity.
    """
    ctx = active()
    x = ctx.real(x)
    frac_a = as_fraction(a)
    logx = ctx.log(x)
    z0 = ctx.real(hurwitz_zeta_negint_fraction(0, frac_a))
    z1 = ctx.real(hurwitz_zeta_negint_fraction(1, frac_a))
    head = (x * x * logx / 2, -x * x / 4, -z0 * x * logx, -z1 * logx, -z1)
    tail = (ctx.real((-1) ** k * hurwitz_zeta_negint_fraction(k + 1, frac_a) / (k * (k + 1)))
            / x ** k for k in range(1, order))
    return ctx.fsum(chain(head, tail))
