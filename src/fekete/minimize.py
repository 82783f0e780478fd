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
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import energy
from .energy import Configuration
from .exceptions import (CapacityError, DomainError, check_finite_above, check_size,
                         ordered_interior)

_MAX_ITER = 200
#: a Newton step this small (in the max norm, on points in [-1, 1]) is
#: float64 rounding noise: the iterate is the minimizer to working precision
_EPS = float(np.finfo(float).eps)
_STEP_FLOOR = 16 * _EPS


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
    Cimento B 49, 1979), a first-order distance to it.
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


def _energy(x: np.ndarray, d: np.ndarray, p: float, q: float) -> float:
    """-2 [ p sum log(1-x_i) + sum_{j<k} log|x_j - x_k| + q sum log(1+x_i) ]:
    the full log|d| sum counts every pair twice and log 1 on the diagonal."""
    logs = np.abs(d)
    np.log(logs, out=logs)
    return float(-logs.sum() - 2.0 * (p * np.log(1.0 - x).sum() + q * np.log(1.0 + x).sum()))


def _slack(n: int, field: np.ndarray) -> float:
    """The energy's rounding at a point set with the field terms
    field = p/(1 - x) + q/(1 + x): eps per pair term, and eps p/(1 - x) or
    eps q/(1 + x) per field term through its rounded 1 -+ x, times 8."""
    return 8 * _EPS * (n * n + field.sum())


def _derivatives(x: np.ndarray, d: np.ndarray, p: float,
                 q: float) -> tuple[np.ndarray, np.ndarray]:
    """Half the gradient and the field terms of :func:`_slack`; -1/2 times
    the Hessian is built in the memory of ``d``, which it overwrites.

    1 -+ x and the field terms are formed once for all three.  The
    Hessian's off-diagonal -2/(x_i - x_j)^2 is -2 times the square of the
    gradient's reciprocal matrix, which takes d's memory first.  The
    factors 1/2 and -1/2 are exact, so the Newton step solves
    (-H/2) dx = grad/2, bit for bit the step of H dx = -grad, with one
    n x n pass fewer.
    """
    u, v = 1.0 - x, 1.0 + x
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


def _first_iterate(x: np.ndarray, y: np.ndarray, p: float,
                   q: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The start of a solve with its difference matrix and energy: ``y`` where
    it is ordered, interior and lower in energy than the ordered interior
    ``x`` by more than the line search's slack at ``x``, else ``x``.  The
    matrix of ``x`` is built again when it is chosen, so that at most two
    n x n arrays are alive at once."""
    value = _energy(x, _differences(x), p, q)
    if ordered_interior(y):
        d = _differences(y)
        y_value = _energy(y, d, p, q)
        if y_value < value - _slack(len(x), p / (1.0 - x) + q / (1.0 + x)):
            return y, d, y_value
    return x, _differences(x), value


def _newton(x: np.ndarray, y: np.ndarray, p: float, q: float,
            max_iter: int) -> SolveReport:
    """The Newton loop of :func:`minimize_potential`, from the start that
    :func:`_first_iterate` picks of ``x`` and ``y``."""
    # d is bound here only, so that each new matrix frees the one before
    x, d, value = _first_iterate(x, y, p, q)
    iterations = 0
    while True:
        # -H/2 takes over d's memory: the line search builds the next matrix
        half, field = _derivatives(x, d, p, q)
        try:
            step = np.linalg.solve(d, half)
        except np.linalg.LinAlgError:
            step_norm, stop = math.nan, "singular"
            break
        step_norm = float(np.abs(step).max())
        if step_norm <= _STEP_FLOOR:
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
            if ordered_interior(candidate):
                d = _differences(candidate)
                candidate_value = _energy(candidate, d, p, q)
                if candidate_value <= value + slack:
                    break
            t *= 0.5
        else:
            stop = "line_search"
            break
        x = candidate
        value = candidate_value
    return SolveReport(
        configuration=Configuration(tuple(x.tolist()), charges=(p, q)),
        iterations=iterations,
        step_norm=step_norm,
        converged=stop == "step",
        energy=value,
        stop=stop,
    )


def _start(n: int, p: float, q: float) -> np.ndarray:
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
    p = 1e50, q = 1.0000001e50 onto one value near 0."""
    ps, qs = min(p, 0.75), min(q, 0.75)
    A, B = 2 * (p - ps) / n, 2 * (q - qs) / n  # inf past 1e308; then x is NaN or -1
    offset = 2 * math.atan(math.sqrt((1 + B) / (1 + A))) - math.pi / 2
    half = 2 * math.atan(1 / math.sqrt(1 + A + B))
    k = np.arange(1, n + 1)
    x = np.sin(offset + (2 * k - n - 1 + (qs - ps)) * (half / (n + ps + qs - 0.5)))
    if ordered_interior(x):
        return x
    return np.sin((2 * k - n - 1) * np.pi / (2 * n)) * (1.0 - 1.0 / n)


def _corrected(n: int, p: float, q: float) -> np.ndarray:
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
    interior or NaN; past charges of about 1e154 it is NaN."""
    rho = n + p + q - 0.5
    # 1/4 - alpha^2 and 1/4 - beta^2
    a, b = (1.5 - 2 * p) * (2 * p - 0.5), (1.5 - 2 * q) * (2 * q - 0.5)
    psi = (2 * np.arange(1, n + 1) - n - 1 + (q - p)) * (math.pi / (2 * rho))
    s = np.sin(psi)
    return np.sin(psi + (b * (1.0 - s) - a * (1.0 + s)) / (4 * rho * rho * np.cos(psi)))


def minimize_potential(n: int, p: float, q: float, max_iter: int = _MAX_ITER) -> SolveReport:
    """Minimize the (p, q) external-field energy of n interior unit charges.

    Damped Newton with the ordering constraint maintained by step halving
    (never by re-sorting): a step is halved until it lands ordered and
    interior and raises the energy by at most 8 eps (n^2 + sum p/(1 - x_i)
    + q/(1 + x_i)), its rounding at the current iterate (no step where that
    overflows).  Starts from the corrected angle grid of :func:`_corrected`
    where it is ordered, interior and lower in energy than the squeezed grid
    of :func:`_start` by more than that slack, else from the squeezed grid,
    or Chebyshev points where that is not ordered and interior.  Converged
    solves take at most 2 Newton steps at (1, 1) (measured to n = 2000),
    3 at (0.85, 1.15) for n <= 90 and 2 from there to n = 5000, 0-4 over the
    charges (3/4 ... 4)^2 at n = 10 to 126 (4-5 from the squeezed grid
    alone, 5-15 from Chebyshev points), and 5 at (12, 1e8, 0.5) (124 from
    Chebyshev points).
    Converged means a Newton step with ||dx||_inf <= 16 eps, the float64
    noise floor of points in [-1, 1], at any n and charges; a gradient bound
    is not scale free, its terms grow like n^2.  A non-converged run is
    reported, not raised; ``SolveReport.stop`` names the rule that ended
    it.  An n whose n x n matrices numpy cannot index raises
    :class:`CapacityError`.
    """
    n = check_size(n, "n", 1)
    check_finite_above(0, "charges", p=p, q=q)
    max_iter = check_size(max_iter, "max_iter", 0)
    if n * n > sys.maxsize // 8:  # numpy's arrays hold at most sys.maxsize bytes
        raise CapacityError(f"n={n} is past the sizes numpy can index")
    # terms past float64 are inf or NaN, which fail the loop's comparisons
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _newton(_start(n, p, q), _corrected(n, p, q), p, q, max_iter)


def fekete_maximize(N: int) -> SolveReport:
    """Maximize the product of all mutual distances of N points in [-1, 1].

    The maximizer always contains both endpoints (otherwise rescaling the
    configuration increases the product), so the interior reduces to the
    (1, 1) external-field problem with N - 2 charges; the endpoints are
    fixed analytically rather than searched for.
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
