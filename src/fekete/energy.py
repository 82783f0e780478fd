"""Exact energies and discriminants.

Configuration energies from first principles, and the closed-form
identities for optimal configurations via the Jacobi leading coefficient,
endpoint values and discriminant.  All quantities are returned as natural
logarithms (the discriminants would overflow float64 near N ~ 150 if
exponentiated).  Coincident or boundary points yield the documented
infinite-energy signal :data:`INFINITE_ENERGY` rather than an exception or
an accidental IEEE overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import mpmath
from mpmath.libmp import ln2_fixed

from . import jacobi
from .exceptions import DomainError, check_finite_above, check_size
from .precision import STD, Scalar, active, integer_ratio, round_ratio
from .specfun import log_fixed

#: returned by configuration energies when points coincide (or touch a
#: charged endpoint), which makes the energy genuinely infinite
INFINITE_ENERGY = float("inf")


@dataclass(frozen=True)
class Configuration:
    """Finite ordered point set in [-1, 1], optionally with endpoint charges.

    ``charges = (p, q)`` places charge p at +1 and q at -1 for the external
    field problem; leave ``None`` for the pure Fekete problem.
    """

    points: tuple[float, ...]
    charges: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(float(x) for x in self.points))
        if any(not -1 <= x <= 1 for x in self.points):
            raise DomainError("configuration points must lie in [-1, 1]")
        if self.charges is not None:
            p, q = self.charges
            check_finite_above(0, "charges", p=p, q=q)


@dataclass(frozen=True)
class IntervalSpec:
    """A compact interval [a, b] with b > a; its logarithmic capacity is
    (b - a)/4."""

    a: float
    b: float

    def __post_init__(self):
        # b - a is finite only when both ends are, and the energy needs its log
        if not (math.isfinite(self.b - self.a) and self.b > self.a):
            raise DomainError(f"interval needs finite b > a, got [{self.a}, {self.b}]")


#: element budget of one row tile of :func:`_log_distance_sum` in ``std``
_TILE = 1 << 13


def _log_distance_sum(points: tuple[float, ...]) -> Scalar | None:
    """sum_{j<k} log|x_j - x_k|, or ``None`` when two points coincide.

    In ``std`` the rows j of distances are taken a tile at a time,
    max(1, _TILE // n) rows (at most n - 1) x the columns k from the
    tile's first row on, in one reused buffer (O(n) extra memory, never an
    n x n matrix).  Entries
    at or below the diagonal are set to 1 so their logarithms vanish, a
    zero left means two points coincide, and the tile sums are combined by
    :func:`math.fsum`.  In ``ext`` one ``fsum`` over the mpf pair
    logarithms carries the extended digits.
    """
    ctx = active()
    if ctx.mode == STD:
        import numpy as np  # only the float64 kernels load numpy

        x = np.asarray(points, dtype=float)
        n = len(x)
        rows = max(1, min(n - 1, _TILE // max(n, 1)))
        lower = np.tri(rows, dtype=bool)
        buf = np.empty(rows * n)
        sums = []
        for j in range(0, n - 1, rows):
            r = min(rows, n - 1 - j)
            tile = buf[:r * (n - j)].reshape(r, n - j)
            np.subtract(x[j:j + r, None], x[None, j:], out=tile)
            np.abs(tile, out=tile)
            np.copyto(tile[:, :r], 1.0, where=lower[:r, :r])
            if not tile.all():
                return None
            np.log(tile, out=tile)
            sums.append(tile.sum())
        return math.fsum(sums)
    if len(set(points)) < len(points):
        return None
    x = [ctx.real(xj) for xj in points]
    return ctx.fsum(ctx.log(abs(xj - xk)) for j, xj in enumerate(x) for xk in x[j + 1:])


def log_energy_config(config: Configuration) -> Scalar:
    """Discrete logarithmic energy sum_{j != k} log(1/|x_j - x_k|).

    Computed as -2 sum_{j<k} log|x_j - x_k|; coincident points return
    :data:`INFINITE_ENERGY`.
    """
    pairs = _log_distance_sum(config.points)
    # 0 - 2 pairs, not -2 pairs: an empty sum gives +0.0 in std
    return INFINITE_ENERGY if pairs is None else 0 - 2 * pairs


def potential_energy_config(config: Configuration) -> Scalar:
    """External-field potential energy 2 log(1/T_n) of a charged configuration.

    -2 [ p sum log(1-x_i) + sum_{j<k} log|x_j - x_k| + q sum log(1+x_i) ];
    requires strictly interior points, else the energy is infinite.  Zero
    field weights are skipped.
    """
    if config.charges is None:
        raise DomainError("potential_energy_config needs a charged configuration")
    ctx = active()
    p, q = ctx.real(config.charges[0]), ctx.real(config.charges[1])
    pts = config.points
    if any(x in (-1.0, 1.0) for x in pts):
        return INFINITE_ENERGY
    pairs = _log_distance_sum(pts)
    if pairs is None:
        return INFINITE_ENERGY
    # the field terms as m log(1 - x^2) + (p - m) log1p(-x) + (q - m) log1p(x),
    # m = min(p, q): at p ~ q >> 1 the points crowd at 0 and p log(1 - x) and
    # q log(1 + x), each O(p x), would cancel down to their sum's O(p x^2).
    # log(1 - x^2) is log1p(-x^2) for |x| < 1/2, and log1p(-x) + log1p(x)
    # beyond, where x^2 would lose 1 - x^2's digits near the ends
    m = min(p, q)
    weights = (m, p - m, q - m)
    if ctx.mode == STD:
        import numpy as np  # only the float64 kernels load numpy

        x = np.asarray(pts, dtype=float)
        lm, lp = np.log1p(-x), np.log1p(x)
        both = np.where(np.abs(x) < 0.5, np.log1p(-x * x), lm + lp)
        field = [(w * v).tolist() for w, v in zip(weights, (both, lm, lp)) if w]
    else:
        x = [ctx.real(xj) for xj in pts]
        lm, lp = [mpmath.log1p(-t) for t in x], [mpmath.log1p(t) for t in x]
        both = [mpmath.log1p(-t * t) if abs(t) < 0.5 else a + b for t, a, b in zip(x, lm, lp)]
        field = [[w * v for v in vs] for w, vs in zip(weights, (both, lm, lp)) if w]
    return 0 - 2 * ctx.fsum(chain((pairs,), *field))  # +0.0 with no points


def _potential_fixed(n: int, p, q, size=None) -> tuple[int, int, int]:
    """(fp, d, E d 2^fp), E the minimal potential energy of n charges under
    endpoint charges (p, q): 2(n+p+q-1) log lambda_n - log D_n
    - 2p log P_n(1) - 2q log |P_n(-1)|, with alpha + 1 = 2p, beta + 1 = 2q,
    p and q exact rationals over d, and the Jacobi quantities at the
    precision of ``size`` (see :func:`jacobi.log_values_fixed`)."""
    (P, dp), (Q, dq) = integer_ratio(p), integer_ratio(q)
    d = math.lcm(dp, dq)
    P, Q = P * (d // dp), Q * (d // dq)
    fp, (lam, disc, at_one, at_minus_one) = jacobi.log_values_fixed(n, (2 * P, d), (2 * Q, d),
                                                                    size=size)
    return fp, d, 2 * ((n - 1) * d + P + Q) * lam - d * disc - 2 * (P * at_one + Q * at_minus_one)


def potential_energy_exact(n: int, p: float, q: float) -> Scalar:
    """Minimal potential energy of n charges under endpoint charges (p, q).

    2(n+p+q-1) log lambda_n - log D_n - 2p log P_n(1) - 2q log P_n(-1)-signed,
    with alpha = 2p-1, beta = 2q-1, as one integer numerator over one
    integer denominator, rounded once (:meth:`Context.ratio`): p and q
    enter as exact binary rationals.  For n = 1 this is 0 when p = q.
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "endpoint charges", p=p, q=q)
    fp, d, value = _potential_fixed(n, p, q)
    return active().ratio(value, d << fp)


def elliptic_log_energy_exact(n: int, p: float, q: float) -> Scalar:
    """Logarithmic energy E_0 of the elliptic (p,q)-Fekete configuration.

    2(n-1) log lambda_n - log D_n, rounded once.  (For n = 1 both terms
    vanish.)
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "endpoint charges", p=p, q=q)
    (P, dp), (Q, dq) = integer_ratio(p), integer_ratio(q)
    fp, (lam, disc) = jacobi.log_values_fixed(n, (2 * P, dp), (2 * Q, dq), (0, 1))
    return active().ratio(2 * (n - 1) * lam - disc, 1 << fp)


def interval_energy_exact(N: int) -> Scalar:
    """Minimal logarithmic N-point energy of [-1, 1].

    The potential energy of N - 2 charges under endpoint charges (1, 1)
    minus 2 log 2, rounded once: the optimal points are the endpoints and
    the zeros of P_{N-2}^(1,1).  N = 2 gives -log 4, the two endpoints.
    """
    fp, _, value = _potential_fixed(check_size(N, "N", 2) - 2, 1, 1)
    return active().ratio(value - 2 * ln2_fixed(fp), 1 << fp)


def discriminant_N_log(N: int) -> Scalar:
    """log of the N-th discriminant of [-1, 1] (max product of mutual distances).

    By duality it is exactly -interval_energy_exact(N), O(1) per N.
    """
    return -interval_energy_exact(N)


def pq_discriminant_log(n: int, p: float, q: float) -> Scalar:
    """log of the n-th (p,q)-discriminant of [-1, 1], i.e. log max T_n^2.

    By duality it is exactly -potential_energy_exact(n, p, q), O(1) per n.
    """
    return -potential_energy_exact(n, p, q)


def interval_energy_on(interval: IntervalSpec, N: int) -> Scalar:
    """Minimal logarithmic N-point energy of a general interval [a, b]:
    the [-1, 1] value minus N(N-1) log eta, eta = (b - a)/2, rounded once,
    with a and b exact rationals.  When the capacity is near 1 the
    N^2 terms cancel down to about -N log N, a loss of log2(N / log N)
    bits, so the evaluation carries log2 N bits more (size sqrt(N))."""
    N = check_size(N, "N", 2)
    fp, _, value = _potential_fixed(N - 2, 1, 1, (max(4, math.isqrt(N)), 1))
    (a, da), (b, db) = integer_ratio(interval.a), integer_ratio(interval.b)
    _, man, exp, _ = round_ratio(b * da - a * db, 2 * da * db, fp)  # eta at fp bits
    log_eta = log_fixed(man, exp, fp)
    return active().ratio(value - 2 * ln2_fixed(fp) - N * (N - 1) * log_eta, 1 << fp)
