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

import numpy as np

from . import jacobi
from .exceptions import DomainError, check_finite_above, check_size
from .jacobi import JacobiParams
from .precision import STD, CompensatedSum, Scalar, active
from .specfun import zeta_prime_neg1_exact

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
    """A compact interval [a, b] with b > a."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise DomainError(f"interval needs finite b > a, got [{self.a}, {self.b}]")

    @property
    def capacity(self) -> float:
        """Logarithmic capacity (transfinite diameter), (b - a)/4."""
        return (self.b - self.a) / 4

    @property
    def energy_constant(self) -> float:
        """W([a, b]) = -log capacity."""
        return -math.log(self.capacity)

    @property
    def scale(self) -> float:
        """Scaling factor eta mapping [-1, 1] onto [a, b]."""
        return (self.b - self.a) / 2


def _log_distance_sum(points: tuple[float, ...]) -> Scalar | None:
    """sum_{j<k} log|x_j - x_k|, or ``None`` when two points coincide.

    In ``std`` each row j of distances is one numpy vector (O(n) extra
    memory, never an n x n matrix) and the row sums are combined by
    :func:`math.fsum`; in ``ext`` the compensated mpf double loop carries
    the extended digits.
    """
    ctx = active()
    if ctx.mode == STD:
        x = np.asarray(points, dtype=float)
        rows = []
        for j in range(len(x) - 1):
            dist = np.abs(x[j + 1:] - x[j])
            if not dist.all():
                return None
            rows.append(np.log(dist).sum())
        return math.fsum(rows)
    acc = CompensatedSum(ctx.zero())
    for j, xj in enumerate(points):
        x = ctx.real(xj)
        for xk in points[j + 1:]:
            if xj == xk:
                return None
            acc.add(ctx.log(abs(x - ctx.real(xk))))
    return acc.value


def log_energy_config(config: Configuration) -> Scalar:
    """Discrete logarithmic energy sum_{j != k} log(1/|x_j - x_k|).

    Computed as -2 sum_{j<k} log|x_j - x_k|; coincident points return
    :data:`INFINITE_ENERGY`.
    """
    pairs = _log_distance_sum(config.points)
    return INFINITE_ENERGY if pairs is None else -2 * pairs


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
    acc = CompensatedSum(pairs)
    for xj in pts:
        x = ctx.real(xj)
        acc.add(p * ctx.log(1 - x))
        acc.add(q * ctx.log(1 + x))
    return -2 * acc.value


def potential_energy_exact(n: int, p: float, q: float) -> Scalar:
    """Minimal potential energy of n charges under endpoint charges (p, q).

    2(n+p+q-1) log lambda_n - log D_n - 2p log P_n(1) - 2q log P_n(-1)-signed,
    with alpha = 2p-1, beta = 2q-1.  For n = 1 this is 0 exactly when p = q.
    """
    n = check_size(n, "n", 1)
    ctx = active()
    params = JacobiParams.from_charges(p, q)
    return (
        2 * (n + ctx.real(p) + ctx.real(q) - 1) * jacobi.leading_coeff_log(n, params)
        - jacobi.discriminant_log(n, params)
        - 2 * ctx.real(p) * jacobi.value_at_one_log(n, params)
        - 2 * ctx.real(q) * jacobi.value_at_minus_one_signed_log(n, params)
    )


def elliptic_log_energy_exact(n: int, p: float, q: float) -> Scalar:
    """Logarithmic energy E_0 of the elliptic (p,q)-Fekete configuration.

    2(n-1) log lambda_n - log D_n.  (For n = 1 both terms vanish.)
    """
    n = check_size(n, "n", 1)
    params = JacobiParams.from_charges(p, q)
    return 2 * (n - 1) * jacobi.leading_coeff_log(n, params) - jacobi.discriminant_log(n, params)


def interval_energy_exact(N: int) -> Scalar:
    """Minimal logarithmic N-point energy of [-1, 1].

    2(N-1) log lambda_{N-2}^(1,1) - log D_{N-2}^(1,1) - 4 log P_{N-2}^(1,1)(1)
    - 2 log 2.  The N = 2 member uses the degenerate n = 0 conventions
    lambda_0 = D_0 = P_0(1) = 1, giving -log 4 (the two-endpoint value).
    """
    N = check_size(N, "N", 2)
    ctx = active()
    if N == 2:
        return -2 * ctx.ln2
    params = JacobiParams(1.0, 1.0)
    n = N - 2
    return (
        2 * (N - 1) * jacobi.leading_coeff_log(n, params)
        - jacobi.discriminant_log(n, params)
        - 4 * jacobi.value_at_one_log(n, params)
        - 2 * ctx.ln2
    )


def discriminant_N_log(N: int) -> Scalar:
    """log of the N-th discriminant of [-1, 1] (max product of mutual distances).

    N(N-1) log 2 + N log N + 3 sum_{k=1}^{N-1} k log k
    - sum_{k=N-1}^{2(N-1)} k log k; equals -interval_energy_exact(N).
    """
    N = check_size(N, "N", 2)
    ctx = active()
    acc = CompensatedSum(ctx.zero())
    acc.add(N * (N - 1) * ctx.ln2)
    acc.add(N * ctx.log(ctx.real(N)))
    for k in range(1, N):
        acc.add(3 * k * ctx.log(ctx.real(k)))
    for k in range(N - 1, 2 * N - 1):
        acc.add(-k * ctx.log(ctx.real(k)))
    return acc.value


def pq_discriminant_log(n: int, p: float, q: float) -> Scalar:
    """log of the n-th (p,q)-discriminant of [-1, 1], i.e. log max T_n^2.

    n(n+2p+2q-1) log 2
    + sum_{k=1..n} [ k log k + (k+2p-1) log(k+2p-1) + (k+2q-1) log(k+2q-1) ]
    - sum_{k=n-1..2(n-1)} (k+2p+2q) log(k+2p+2q);
    equals -potential_energy_exact(n, p, q).
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "charges", p=p, q=q)
    ctx = active()
    p, q = ctx.real(p), ctx.real(q)
    acc = CompensatedSum(ctx.zero())
    acc.add(n * (n + 2 * p + 2 * q - 1) * ctx.ln2)
    for k in range(1, n + 1):
        acc.add(k * ctx.log(ctx.real(k)))
        acc.add((k + 2 * p - 1) * ctx.log(k + 2 * p - 1))
        acc.add((k + 2 * q - 1) * ctx.log(k + 2 * q - 1))
    for k in range(n - 1, 2 * n - 1):
        acc.add(-(k + 2 * p + 2 * q) * ctx.log(k + 2 * p + 2 * q))
    return acc.value


def logsum_shifted(m: int, n: int, offset: float) -> Scalar:
    """sum_{k=m+1..n} (k + offset) log(k + offset), compensated, ascending k."""
    if not n > m >= 0:
        raise DomainError(f"logsum_shifted requires n > m >= 0, got m={m}, n={n}")
    ctx = active()
    offset = ctx.real(offset)
    if not m + 1 + offset > 0:
        raise DomainError(f"offset must exceed -(m+1), got {offset}")
    acc = CompensatedSum(ctx.zero())
    for k in range(m + 1, n + 1):
        acc.add((k + offset) * ctx.log(k + offset))
    return acc.value


def logsum_shifted_via_zeta(m: int, n: int, offset: float) -> Scalar:
    """The same sum as a Hurwitz-zeta-derivative difference,
    zeta'(-1, n+offset+1) - zeta'(-1, m+offset+1), for cross-checking."""
    if not n > m >= 0:
        raise DomainError(f"logsum_shifted requires n > m >= 0, got m={m}, n={n}")
    ctx = active()
    offset = ctx.real(offset)
    if not m + 1 + offset > 0:
        raise DomainError(f"offset must exceed -(m+1), got {offset}")
    return zeta_prime_neg1_exact(n + offset + 1) - zeta_prime_neg1_exact(m + offset + 1)


def rescale_energy(kind: str, base: Scalar, eta: float, n: int,
                   p: float | None = None, q: float | None = None) -> Scalar:
    """Transport a [-1, 1] energy value to the interval scaled by eta > 0.

    potential: base - (log eta) n^2 - (log eta)(2p+2q-1) n
    interval:  base - (log eta) N(N-1)          (N-th discriminant scaling)
    """
    ctx = active()
    check_finite_above(0, "scaling factor", eta=eta)
    log_eta = ctx.log(ctx.real(eta))
    if kind == "potential":
        if p is None or q is None:
            raise DomainError("potential rescaling needs charges p and q")
        return base - log_eta * n * n - log_eta * (2 * ctx.real(p) + 2 * ctx.real(q) - 1) * n
    if kind == "interval":
        return base - log_eta * n * (n - 1)
    raise DomainError(f"unknown rescale kind {kind!r} (expected 'potential' or 'interval')")


def interval_energy_on(interval: IntervalSpec, N: int) -> Scalar:
    """Minimal logarithmic N-point energy of a general interval [a, b]."""
    return rescale_energy("interval", interval_energy_exact(N), interval.scale, N)
