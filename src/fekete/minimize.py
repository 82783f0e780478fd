"""Independent electrostatic optimizer.

Minimizes the external-field potential energy directly by damped Newton
iteration on the interior of [-1, 1], providing the oracle that the optima
coincide with Jacobi polynomial zeros; the Fekete problem (max product of
mutual distances) is solved by fixing the endpoints analytically and
minimizing the (1,1) field problem inside.

The optimizer is its own float64 kernel in every precision mode: one
matrix of pairwise differences per iterate gives the energy, then, in its
own memory, the gradient's reciprocals and the Hessian.  The Hessian is
positive definite throughout the ordered interior chamber, so Newton with
feasibility damping converges to the unique minimum from any interior
start, and stops on a Newton step at float64 rounding.  The start is one
of two closed forms in (n, p, q): the angle grid of the exact charges with
its second-order Gatteschi term (:func:`_corrected`), where that is
ordered, interior and lower in energy, else the electrostatic angle grid
of :func:`_start` squeezed onto the interval that large charges leave to
the points.  Neither calls anything in :mod:`fekete.jacobi`, so the
minimizer stays a route to the zeros independent of them.

At p = q, and so in every :func:`fekete_maximize`, the minimizer is
symmetric, and Szego's quadratic transformation halves the solve
(:func:`_symmetric`): the n // 2 positive points are solved for as the gaps
t = 2 x^2 = 1 + y on (0, 2), by the same kernels, which take the ends of
their interval, and with a step stop relative to t.  The LU is 8 times
smaller and the n^2 passes 4 times.  A solve at p = q that this route does
not converge is run again on all n points, the reference route.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import energy
from .energy import Configuration
from .exceptions import (CapacityError, DomainError, check_finite_above, check_size,
                         ordered_interior)

_MAX_ITER = 200
#: a Newton step this small (in the max norm, on points in [-1, 1], or
#: relative to the gaps t of a half-size solve) is float64 rounding noise:
#: the iterate is the minimizer to working precision
_EPS = float(np.finfo(float).eps)
_STEP_FLOOR = 16 * _EPS
_TWO_LOG2 = 2.0 * math.log(2)
#: the interval of the points, and that of the gaps t = 2 x^2 of :func:`_symmetric`
_X, _T = (-1.0, 1.0), (0.0, 2.0)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: final points, iteration count, last Newton step.

    ``stop`` says why the solve ended: ``"step"`` (converged: the Newton
    step fell to the float64 noise floor), ``"max_iter"``, ``"line_search"``
    (no acceptable step length) or ``"singular"`` (the Hessian is singular
    in float64, and ``step_norm`` NaN).  It is empty for a report built by
    hand.  ``step_norm`` is ||dx||_inf of the last Newton step solved from
    the final points: as diag(1 - x^2) H has the eigenvalues
    k (2n + alpha + beta + 1 - k) at the minimizer (Ahmed et al., Nuovo
    Cimento B 49, 1979), a first-order distance to it.  A converged solve
    at p = q reports the half problem of :func:`minimize_potential`:
    ``iterations`` counts its Newton steps, and ``step_norm`` is its last
    step in the gaps t = 2 x^2 mapped to x, max |dt_j|/(4 x_j).
    """

    configuration: Configuration
    iterations: int
    step_norm: float
    converged: bool
    energy: float
    stop: str = ""

    @property
    def points(self) -> tuple[float, ...]:
        return self.configuration.points


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The diagonal of the square, C-contiguous ``a``, as a writable view."""
    return a.ravel()[:: len(a) + 1]


def _differences(x: np.ndarray) -> np.ndarray:
    """The matrix x_i - x_j, with ones on the diagonal so that its logarithms
    and reciprocals stay finite; the kernels below zero the diagonal terms."""
    d = x[:, None] - x[None, :]
    _diagonal(d)[:] = 1.0
    return d


def _energy(x: np.ndarray, d: np.ndarray, p: float, q: float, lo: float,
            hi: float) -> tuple[float, float]:
    """-2 [ p sum log(hi - x_i) + sum_{j<k} log|x_j - x_k| + q sum log(x_i - lo) ]
    and its pair part: the full log|d| sum counts every pair twice and log 1
    on the diagonal."""
    logs = np.abs(d)
    np.log(logs, out=logs)
    pairs = -logs.sum()
    return float(pairs - 2.0 * (p * np.log(hi - x).sum() + q * np.log(x - lo).sum())), float(pairs)


def _slack(n: int, field: np.ndarray) -> float:
    """The energy's rounding at a point set with the field terms
    field = p/(hi - x) + q/(x - lo): eps per pair term, and eps p/(hi - x)
    or eps q/(x - lo) per field term through its rounded end gap, times 8."""
    return 8 * _EPS * (n * n + field.sum())


def _derivatives(x: np.ndarray, d: np.ndarray, p: float, q: float, lo: float = -1.0,
                 hi: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Half the gradient and the field terms of :func:`_slack`; -1/2 times
    the Hessian is built in the memory of ``d``, which it overwrites.

    The end gaps hi - x and x - lo and the field terms are formed once for
    all three.  The Hessian's off-diagonal -2/(x_i - x_j)^2 is -2 times the
    square of the gradient's reciprocal matrix, which takes d's memory
    first.  The factors 1/2 and -1/2 are exact, so the Newton step solves
    (-H/2) dx = grad/2, bit for bit the step of H dx = -grad, with one
    n x n pass fewer.
    """
    u, v = hi - x, x - lo
    pu, qv = p / u, q / v
    inv = np.divide(1.0, d, out=d)
    _diagonal(inv)[:] = 0.0
    half = (pu - qv) - inv.sum(axis=1)
    m = np.square(inv, out=inv)
    _diagonal(m)[:] = -(pu / u + qv / v) - m.sum(axis=1)
    return half, pu + qv


def gradient(config: Configuration) -> np.ndarray:
    """Gradient of the potential energy.

    Component i is 2 [ p/(1-x_i) - q/(1+x_i) - sum_{j != i} 1/(x_i - x_j) ].
    """
    if config.charges is None:
        raise DomainError("gradient needs a charged configuration")
    p, q = config.charges
    x = np.asarray(config.points, dtype=float)
    if not ordered_interior(np.sort(x)):
        raise DomainError("points must be pairwise distinct and strictly interior to [-1, 1]")
    return 2.0 * _derivatives(x, _differences(x), p, q)[0]


def _first_iterate(x: np.ndarray, y: np.ndarray, p: float, q: float, lo: float,
                   hi: float) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """The start of a solve with its difference matrix and :func:`_energy`:
    ``y`` where it is ordered, interior and lower in energy than the ordered
    interior ``x`` by more than the line search's slack at ``x``, else ``x``.
    The matrix of ``x`` is built again when it is chosen, so that at most
    two n x n arrays are alive at once."""
    value = _energy(x, _differences(x), p, q, lo, hi)
    if ordered_interior(y, lo, hi):
        d = _differences(y)
        y_value = _energy(y, d, p, q, lo, hi)
        if y_value[0] < value[0] - _slack(len(x), p / (hi - x) + q / (x - lo)):
            return y, d, y_value
    return x, _differences(x), value


class _Solve(NamedTuple):
    """The end of a Newton loop: the last iterate, its energy and the pair
    part of that, the steps taken, the last Newton step and its size (None
    and NaN at ``"singular"``), and the stop."""

    x: np.ndarray
    energy: float
    pairs: float
    iterations: int
    step: np.ndarray | None
    size: float
    stop: str


def _newton(x: np.ndarray, y: np.ndarray, p: float, q: float, max_iter: int,
            lo: float = -1.0, hi: float = 1.0, relative: bool = False) -> _Solve:
    """The Newton loop of :func:`minimize_potential` on points in (lo, hi),
    from the start that :func:`_first_iterate` picks of ``x`` and ``y``.

    The step's size is ||dx||_inf, or with ``relative`` max |dx_i|/x_i, for
    points that are gaps to the end lo = 0; the step is at rounding level
    where its size is at most 16 eps."""
    # d is bound here only, so that each new matrix frees the one before
    x, d, (value, pairs) = _first_iterate(x, y, p, q, lo, hi)
    iterations = 0
    while True:
        # -H/2 takes over d's memory: the line search builds the next matrix
        half, field = _derivatives(x, d, p, q, lo, hi)
        try:
            step = np.linalg.solve(d, half)
        except np.linalg.LinAlgError:
            step, size, stop = None, math.nan, "singular"
            break
        size = np.abs(step)
        if relative:
            size /= x
        size = float(size.max())
        if size <= _STEP_FLOOR:
            stop = "step"
            break
        if iterations >= max_iter:
            stop = "max_iter"
            break
        iterations += 1
        slack = _slack(len(x), field)  # an overflowed slack takes no step
        t = 1.0
        while t > 1e-16 and slack < math.inf:
            candidate = x + t * step
            if ordered_interior(candidate, lo, hi):
                d = _differences(candidate)
                candidate_value, candidate_pairs = _energy(candidate, d, p, q, lo, hi)
                if candidate_value <= value + slack:
                    break
            t *= 0.5
        else:
            stop = "line_search"
            break
        x, value, pairs = candidate, candidate_value, candidate_pairs
    return _Solve(x, value, pairs, iterations, step, size, stop)


def _report(x: list, p: float, q: float, value: float, iterations: int,
            step_norm: float, stop: str) -> SolveReport:
    """The report of a solve that ended on the points ``x`` with ``stop``."""
    return SolveReport(
        configuration=Configuration(tuple(x), charges=(p, q)),
        iterations=iterations,
        step_norm=step_norm,
        converged=stop == "step",
        energy=value,
        stop=stop,
    )


def _symmetric(n: int, p: float, max_iter: int) -> SolveReport | None:
    """:func:`minimize_potential` at p = q through Szego's quadratic map,
    or None where that route does not converge.

    The minimizer is symmetric, and its m = n // 2 positive points x_j
    are the minimizer in t = 2 x^2 = 1 + y on (0, 2) of m points with the
    charges (p, 1/4) for even n, (p, 3/4) for odd n: P_2m^(a,a)(x) is
    proportional to P_m^(a,-1/2)(2x^2 - 1), and P_2m+1^(a,a)(x) to
    x P_m^(a,1/2)(2x^2 - 1) (Szego, Orthogonal Polynomials, Thm 4.1).  Term
    by term, |x_j^2 - x_k^2| = |t_j - t_k|/2, the mirror pair's 2 x_j is
    sqrt(2 t_j), the middle point's x_j^2 is t_j/2 and 1 - x_j^2 is
    (2 - t_j)/2, so the energy is 2 E_half + 2 log 2 (m^2 - (3/2 - n mod 2) m
    + 2 p m), its p terms formed with log1p.  The t_j are gaps to the
    centre: they are held, and the step stops, relative to themselves,
    |dt_j| <= 16 eps t_j, which is |dx_j| <= 8 eps x_j, where 1 + y near the
    centre would be held only to an absolute eps.  Both starts are sines of
    the angle to the centre, so t = 2 x^2 keeps their relative accuracy.
    Past charges of about 1e154 the squares of the gaps leave float64 and
    the Hessian overflows: the solve ends unconverged.
    """
    m, odd = n // 2, n % 2
    if m == 0:
        return _report([0.0], p, p, 0.0, 0, 0.0, "step")
    q = 0.75 if odd else 0.25
    solve = _newton(_start(n, p, p, gaps=True), _corrected(n, p, p, gaps=True), p, q,
                    max_iter, *_T, relative=True)
    if solve.stop != "step":
        return None
    t = solve.x
    # 2 E_half with the field term log(2 - t) = log 2 + log1p(-t/2): the p
    # terms cancel to O(p t), and 2 - t holds t only to an absolute eps
    energy_ = (2.0 * solve.pairs - 4.0 * (p * np.log1p(-0.5 * t).sum() + q * np.log(t).sum())
               + _TWO_LOG2 * (m * m - (1.5 - odd) * m))
    x = np.sqrt(t * 0.5)
    # dx = dt/(4x); the division by 4 after the max is exact
    step_norm = float((np.abs(solve.step) / x).max()) / 4.0
    x = x.tolist()
    return _report([-v for v in reversed(x)] + [0.0] * odd + x, p, p, float(energy_),
                   solve.iterations, step_norm, solve.stop)


def _start(n: int, p: float, q: float, gaps: bool = False) -> np.ndarray:
    """The angle grid of the charges up to 3/4, spread over the interval
    that the charges past 3/4 leave to the points.

    With charges p, q <= 3/4 this is x_k = -cos((k + q - 3/4) pi /
    (n + p + q - 1/2)), k = 1..n: even steps in theta = arccos(-x), with
    end gaps set by the charges, and the zeros themselves at p = q = 3/4.
    The excess a = p - 3/4 and b = q - 3/4, where positive, squeezes the
    grid into theta in [c - h, c + h], the Moak-Saff-Varga limit of the
    zeros' support for alpha/n -> A = 2a/n and beta/n -> B = 2b/n:
    tan(c/2)^2 = (1 + B)/(1 + A) and tan(h/2)^2 = 1/(1 + A + B).  So at
    p >> n the points sit at 1 + x ~ n/p, where the zeros are, and not at
    the (n/p)^2 of the plain grid.  Formed as sin(theta - pi/2) from
    c - pi/2, which is 0 at p = q, the grid is then exactly antisymmetric.
    Chebyshev points scaled by 1 - 1/n where the result is not ordered
    and interior: at p = 1e300, say, every point rounds onto -1, and at
    p = 1e50, q = 1.0000001e50 onto one value near 0.  With ``gaps``, at
    p = q, the gaps t = 2 x^2 of the n // 2 positive points of
    :func:`_symmetric`, and the test is theirs in (0, 2): the whole grid is
    ordered and interior where its positive points are in (0, 1)."""
    ps, qs = min(p, 0.75), min(q, 0.75)
    A, B = 2 * (p - ps) / n, 2 * (q - qs) / n  # inf past 1e308; then x is NaN or -1
    offset = 2 * math.atan(math.sqrt((1 + B) / (1 + A))) - math.pi / 2
    half = 2 * math.atan(1 / math.sqrt(1 + A + B))
    k = _indices(n, gaps)
    x = np.sin(offset + (2 * k - n - 1 + (qs - ps)) * (half / (n + ps + qs - 0.5)))
    if gaps:
        x = _gaps(x)
    if ordered_interior(x, *(_T if gaps else _X)):
        return x
    x = np.sin((2 * k - n - 1) * np.pi / (2 * n)) * (1.0 - 1.0 / n)
    return _gaps(x) if gaps else x


def _indices(n: int, gaps: bool) -> np.ndarray:
    """The grid indices k = 1..n, or with ``gaps`` the n // 2 past the middle."""
    return np.arange(n - n // 2 + 1 if gaps else 1, n + 1)


def _gaps(x: np.ndarray) -> np.ndarray:
    """t = 2 x^2, in the memory of ``x``: relative to x, whose digits are
    relative too where it is the sine of an angle to the centre."""
    np.square(x, out=x)
    x *= 2.0
    return x


def _corrected(n: int, p: float, q: float, gaps: bool = False) -> np.ndarray:
    """The angle grid of the exact charges with its 1/(4 rho^2) term, the
    zeros of P_n^(alpha, beta), alpha = 2p - 1 and beta = 2q - 1, to second
    order (Gatteschi & Pittaluga 1985; Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652).

    x_k = -cos(theta_k) with theta_k = phi_k + [(1/4 - beta^2) cot(phi_k/2)
    - (1/4 - alpha^2) tan(phi_k/2)] / (4 rho^2), phi_k = (k + q - 3/4) pi /
    rho and rho = n + p + q - 1/2.  Formed as sin(psi + term) from
    psi = phi - pi/2, with cot(phi/2) = (1 - sin psi)/cos psi and
    tan(phi/2) = (1 + sin psi)/cos psi, so at p = q the grid is exactly
    antisymmetric with a middle point of exactly 0.  Where alpha^2/rho^2 is
    not small the term is not either, and the grid may be unordered, not
    interior or NaN; past charges of about 1e154 it is NaN.  With ``gaps``,
    the gaps t = 2 x^2 of the points of :func:`_start`'s ``gaps``, as
    unchecked."""
    rho = n + p + q - 0.5
    # 1/4 - alpha^2 and 1/4 - beta^2
    a, b = (1.5 - 2 * p) * (2 * p - 0.5), (1.5 - 2 * q) * (2 * q - 0.5)
    psi = (2 * _indices(n, gaps) - n - 1 + (q - p)) * (math.pi / (2 * rho))
    s = np.sin(psi)
    x = np.sin(psi + (b * (1.0 - s) - a * (1.0 + s)) / (4 * rho * rho * np.cos(psi)))
    return _gaps(x) if gaps else x


def minimize_potential(n: int, p: float, q: float, max_iter: int = _MAX_ITER) -> SolveReport:
    """Minimize the (p, q) external-field energy of n interior unit charges.

    Damped Newton with the ordering constraint maintained by step halving
    (never by re-sorting): a step is halved until it lands ordered and
    interior and raises the energy by at most 8 eps (n^2 + sum p/(1 - x_i)
    + q/(1 + x_i)), its rounding at the current iterate (no step where that
    overflows).  Starts from the corrected angle grid of :func:`_corrected`
    where it is ordered, interior and lower in energy than the squeezed grid
    of :func:`_start` by more than that slack, else from the squeezed grid,
    or Chebyshev points where that is not ordered and interior.  At p = q
    the n // 2 positive points are solved for in the gaps t = 2 x^2, with
    the same kernels, the same starts and a relative stop
    (:func:`_symmetric`); where that does not converge, all n points are.
    Converged solves take at most 2 Newton steps at (1, 1) (measured to
    n = 2000; 3 at n = 2), 3 at (0.85, 1.15) for n <= 90 and 2 from there
    to n = 5000, 0-4 over the charges (3/4 ... 4)^2 at n = 10 to 126 (4-5
    from the squeezed grid alone, 5-15 from Chebyshev points), and 5 at
    (12, 1e8, 0.5) (124 from Chebyshev points).
    Converged means a Newton step with ||dx||_inf <= 16 eps, the float64
    noise floor of points in [-1, 1], at any n and charges, and at p = q
    with |dx_j| <= 8 eps x_j; a gradient bound is not scale free, its terms
    grow like n^2.  A non-converged run is reported, not raised;
    ``SolveReport.stop`` names the rule that ended it.  An n whose n x n
    matrices numpy cannot index raises :class:`CapacityError`.
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "charges", p=p, q=q)
    max_iter = check_size(max_iter, "max_iter", 0)
    if n * n > sys.maxsize // 8:  # numpy's arrays hold at most sys.maxsize bytes
        raise CapacityError(f"n={n} is past the sizes numpy can index")
    # terms past float64 are inf or NaN, which fail the loop's comparisons
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        report = _symmetric(n, p, max_iter) if p == q else None
        if report is not None:
            return report
        solve = _newton(_start(n, p, q), _corrected(n, p, q), p, q, max_iter)
    return _report(solve.x.tolist(), p, q, solve.energy, solve.iterations, solve.size,
                   solve.stop)


def fekete_maximize(N: int) -> SolveReport:
    """Maximize the product of all mutual distances of N points in [-1, 1].

    The maximizer always contains both endpoints (otherwise rescaling the
    configuration increases the product), so the interior reduces to the
    (1, 1) external-field problem with N - 2 charges, which
    :func:`minimize_potential` solves at half size; the endpoints are fixed
    analytically rather than searched for.
    """
    N = check_size(N, "N", 2)
    if N == 2:
        config = Configuration((-1.0, 1.0))
        return SolveReport(
            configuration=config,
            iterations=0,
            step_norm=0.0,
            converged=True,
            energy=float(energy.log_energy_config(config)),
            stop="step",
        )
    inner = minimize_potential(N - 2, 1.0, 1.0)
    config = Configuration((-1.0,) + inner.points + (1.0,))
    # the pairs with an endpoint are the (1, 1) field terms of the inner
    # energy; the one pair left, (-1, 1), adds -2 log 2
    return replace(inner, configuration=config, energy=inner.energy - 2 * math.log(2))
