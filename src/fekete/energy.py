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

from . import jacobi
from .exceptions import DomainError, check_finite_above, check_size
from .precision import STD, Scalar, active

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
    requires strictly interior points, else the energy is infinite.
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
    if ctx.mode == STD:
        import numpy as np  # only the float64 kernels load numpy

        x = np.asarray(pts, dtype=float)
        charge_terms = chain((p * np.log(1 - x)).tolist(), (q * np.log(1 + x)).tolist())
    else:
        x = [ctx.real(xj) for xj in pts]
        charge_terms = chain((p * ctx.log(1 - xj) for xj in x),
                             (q * ctx.log(1 + xj) for xj in x))
    return 0 - 2 * ctx.fsum(chain((pairs,), charge_terms))  # +0.0 with no points


def _potential_mp(n: int, p, q):
    """The minimal potential energy at the caller's mpmath precision:
    2(n+p+q-1) log lambda_n - log D_n - 2p log P_n(1) - 2q log |P_n(-1)|,
    with alpha + 1 = 2p, beta + 1 = 2q; n - 1 is added to p + q last, so
    that tiny charges at n = 1 keep their weight.  At n = 0 it is exactly 0."""
    lam, disc, at_one, at_minus_one = jacobi.log_values_mp(n, 2 * p, 2 * q)
    return 2 * ((n - 1) + (p + q)) * lam - disc - 2 * p * at_one - 2 * q * at_minus_one


def _interval_mp(N: int):
    """The minimal N-point energy of [-1, 1] at the caller's mpmath precision:
    the endpoints and the zeros of P_{N-2}^(1,1), i.e. the potential energy
    of N - 2 charges under unit endpoint charges, minus 2 log 2."""
    return _potential_mp(N - 2, 1, 1) - 2 * mpmath.ln2


def potential_energy_exact(n: int, p: float, q: float) -> Scalar:
    """Minimal potential energy of n charges under endpoint charges (p, q).

    2(n+p+q-1) log lambda_n - log D_n - 2p log P_n(1) - 2q log P_n(-1)-signed,
    with alpha = 2p-1, beta = 2q-1, as one mpmath expression at guard
    digits (:meth:`Context.guarded`), rounded once.  For n = 1 this is
    0 when p = q.
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "endpoint charges", p=p, q=q)
    # the size alpha + beta + 2 = 2(p + q) in mpf: in float64 it overflows past 9e307
    return active().guarded(lambda p, q: _potential_mp(n, p, q), p, q,
                            size=2 * (mpmath.mpf(p) + q))


def elliptic_log_energy_exact(n: int, p: float, q: float) -> Scalar:
    """Logarithmic energy E_0 of the elliptic (p,q)-Fekete configuration.

    2(n-1) log lambda_n - log D_n.  (For n = 1 both terms vanish.)
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "endpoint charges", p=p, q=q)

    def body(p, q):
        lam, disc, _, _ = jacobi.log_values_mp(n, 2 * p, 2 * q)
        return 2 * (n - 1) * lam - disc

    return active().guarded(body, p, q, size=2 * (mpmath.mpf(p) + q))


def interval_energy_exact(N: int) -> Scalar:
    """Minimal logarithmic N-point energy of [-1, 1].

    The potential energy of N - 2 charges under endpoint charges (1, 1)
    minus 2 log 2, rounded once: the optimal points are the endpoints and
    the zeros of P_{N-2}^(1,1).  N = 2 gives -log 4, the two endpoints.
    """
    N = check_size(N, "N", 2)
    return active().guarded(lambda: _interval_mp(N), size=4)


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
    the [-1, 1] value minus N(N-1) log eta, eta = (b - a)/2, as one mpmath
    expression rounded once.  When the capacity is near 1 the N^2 terms
    cancel down to about -N log N, a loss of log2(N / log N) bits, so the
    evaluation carries log2 N bits more (``size`` sqrt(N))."""
    N = check_size(N, "N", 2)
    return active().guarded(
        lambda a, b: _interval_mp(N) - N * (N - 1) * mpmath.log((b - a) / 2),
        interval.a, interval.b, size=max(4, math.isqrt(N)))
