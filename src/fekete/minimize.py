"""Independent electrostatic optimizer.

Minimizes the external-field potential energy directly by damped Newton
iteration on the interior of [-1, 1], providing the oracle that the optima
coincide with Jacobi polynomial zeros; the Fekete problem (max product of
mutual distances) is solved by fixing the endpoints analytically and
minimizing the (1,1) field problem inside.

The optimizer is its own float64 kernel in every precision mode: one
matrix of pairwise differences per iterate gives the energy, the gradient
and the Hessian.  The Hessian is positive definite throughout the ordered
interior chamber, so Newton with feasibility damping converges to the
unique minimum from any interior start, and stops on a Newton step at
float64 rounding.  The start is a closed form in
(n, p, q), the electrostatic angle grid of :func:`_start` squeezed onto
the interval that large charges leave to the points; it calls nothing in
:mod:`fekete.jacobi`, so the minimizer stays a route to the zeros
independent of them.
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


def _gradient(x: np.ndarray, d: np.ndarray, p: float, q: float) -> np.ndarray:
    inv = np.divide(1.0, d)
    _diagonal(inv)[:] = 0.0
    return 2.0 * (p / (1.0 - x) - q / (1.0 + x) - inv.sum(axis=1))


def _hessian(x: np.ndarray, d: np.ndarray, p: float, q: float) -> np.ndarray:
    """The Hessian, built in the memory of ``d``, which it overwrites."""
    h = np.square(d, out=d)
    np.divide(-2.0, h, out=h)
    _diagonal(h)[:] = 0.0
    diag = 2.0 * (p / np.square(1.0 - x) + q / np.square(1.0 + x)) - h.sum(axis=1)
    _diagonal(h)[:] = diag
    return h


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
    return _gradient(x, _differences(x), p, q)


def _newton(x0: np.ndarray, p: float, q: float, max_iter: int) -> SolveReport:
    """The Newton loop of :func:`minimize_potential`, from the ordered interior ``x0``."""
    x, d = x0, _differences(x0)
    value = _energy(x, d, p, q)
    iterations = 0
    while True:
        grad = _gradient(x, d, p, q)
        # H takes over d's memory: the line search builds the next matrix
        try:
            step = np.linalg.solve(_hessian(x, d, p, q), -grad)
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
        # the energy's rounding: eps per pair term, and eps p/(1 - x) or eps q/(1 + x)
        # per field term through its rounded 1 -+ x; an overflowed bound takes no step
        slack = 8 * _EPS * (len(x) ** 2 + (p / (1.0 - x)).sum() + (q / (1.0 + x)).sum())
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


def minimize_potential(n: int, p: float, q: float, max_iter: int = _MAX_ITER) -> SolveReport:
    """Minimize the (p, q) external-field energy of n interior unit charges.

    Damped Newton with the ordering constraint maintained by step halving
    (never by re-sorting): a step is halved until it lands ordered and
    interior and raises the energy by at most 8 eps (n^2 + sum p/(1 - x_i)
    + q/(1 + x_i)), its rounding at the current iterate (no step where that
    overflows).  Starts from the squeezed angle grid of :func:`_start`, or
    Chebyshev points where it is not ordered and interior;
    converged solves at moderate charges take 4-5 Newton steps from it
    for n = 12 to 1000 (5-15 from Chebyshev points), and 5 at
    (12, 1e8, 0.5) (124).
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
        return _newton(_start(n, p, q), p, q, max_iter)


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
