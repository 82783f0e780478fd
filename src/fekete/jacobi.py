"""Jacobi polynomial quantities, kept in the log domain where magnitudes
explode: leading coefficient, endpoint values, pointwise recurrence
evaluation, zeros, and the closed-form discriminant product."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .exceptions import NumericalError, check_finite_above, check_size
from .precision import Scalar, active


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (alpha, beta), both finite and > -1.

    The endpoint charges of the electrostatic problem are
    p = (alpha + 1)/2 at +1 and q = (beta + 1)/2 at -1.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        check_finite_above(-1, "Jacobi exponents", alpha=self.alpha, beta=self.beta)

    @classmethod
    def from_charges(cls, p: float, q: float) -> "JacobiParams":
        check_finite_above(0, "endpoint charges", p=p, q=q)
        return cls(alpha=2 * p - 1, beta=2 * q - 1)

    @property
    def p(self) -> float:
        return (self.alpha + 1) / 2

    @property
    def q(self) -> float:
        return (self.beta + 1) / 2

    def swapped(self) -> "JacobiParams":
        return JacobiParams(alpha=self.beta, beta=self.alpha)


@dataclass(frozen=True)
class ZeroSet:
    """The n simple zeros of P_n^(alpha,beta), ascending, all in (-1, 1).

    ``residual`` is max |P_n(x_i)| over the returned points, the value the
    residual gate of :func:`zeros` accepted.
    """

    n: int
    params: JacobiParams
    points: tuple[float, ...]
    residual: float


def leading_coeff_log(n: int, params: JacobiParams) -> Scalar:
    """log lambda_n = -n log 2 + lgamma(2n+a+b+1) - lgamma(n+a+b+1) - lgamma(n+1)."""
    n = check_size(n, "n", 0)
    ctx = active()
    if n == 0:
        return ctx.zero()  # lambda_0 = 1
    ab = ctx.real(params.alpha) + ctx.real(params.beta)
    return (
        -n * ctx.ln2
        + ctx.lgamma(2 * n + ab + 1)
        - ctx.lgamma(n + ab + 1)
        - ctx.lgamma(ctx.real(n + 1))
    )


def value_at_one_log(n: int, params: JacobiParams) -> Scalar:
    """log P_n(1) = log[(1+alpha)_n / n!]."""
    n = check_size(n, "n", 0)
    ctx = active()
    if n == 0:
        return ctx.zero()
    alpha = ctx.real(params.alpha)
    return ctx.lgamma(n + alpha + 1) - ctx.lgamma(alpha + 1) - ctx.lgamma(ctx.real(n + 1))


def value_at_minus_one_signed_log(n: int, params: JacobiParams) -> Scalar:
    """log[(-1)^n P_n(-1)] = log[(1+beta)_n / n!], via the reflection symmetry."""
    return value_at_one_log(n, params.swapped())


def _recurrence(n: int, alpha, beta, x):
    """P_n^(alpha,beta)(x) by the forward three-term recurrence.

    Works for float or mpf scalars alike, and elementwise on a numpy array;
    coefficients stay rational in the inputs so no elementary-function
    dispatch is needed.
    """
    if n == 0:
        return x * 0 + 1
    p_prev = x * 0 + 1
    p = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
    for k in range(2, n + 1):
        s = 2 * k + alpha + beta
        a1 = 2 * k * (k + alpha + beta) * (s - 2)
        a2 = (s - 1) * (alpha * alpha - beta * beta)
        a3 = (s - 1) * s * (s - 2)
        a4 = 2 * (k + alpha - 1) * (k + beta - 1) * s
        p_prev, p = p, ((a2 + a3 * x) * p - a4 * p_prev) / a1
    return p


def evaluate(n: int, params: JacobiParams, x) -> Scalar:
    """P_n^(alpha,beta)(x)."""
    n = check_size(n, "n", 0)
    ctx = active()
    return _recurrence(n, ctx.real(params.alpha), ctx.real(params.beta), ctx.real(x))


def evaluate_derivative(n: int, params: JacobiParams, x) -> Scalar:
    """d/dx P_n^(alpha,beta)(x), via the degree-lowering identity."""
    n = check_size(n, "n", 0)
    ctx = active()
    if n == 0:
        return ctx.zero()
    alpha, beta = ctx.real(params.alpha), ctx.real(params.beta)
    return (n + alpha + beta + 1) / 2 * _recurrence(n - 1, alpha + 1, beta + 1, ctx.real(x))


def _recurrence_coeffs(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the n x n symmetric Jacobi matrix."""
    k = np.arange(n, dtype=float)
    s = 2 * k + alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (alpha + beta + 2)
    if n > 1:
        diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = math.sqrt(
            4 * (alpha + 1) * (beta + 1) / ((alpha + beta + 2) ** 2 * (alpha + beta + 3))
        )
    if n > 2:
        kk = k[2:]
        sq = (
            4
            * kk
            * (kk + alpha)
            * (kk + beta)
            * (kk + alpha + beta)
            / (s[2:] ** 2 * (s[2:] + 1) * (s[2:] - 1))
        )
        off[1:] = np.sqrt(sq)
    return diag, off


def zeros(n: int, params: JacobiParams) -> ZeroSet:
    """Zeros of P_n^(alpha,beta), ascending.

    Computed as eigenvalues of the symmetric tridiagonal recurrence matrix
    (Golub-Welsch) followed by a single Newton polish; always float64
    (sufficient for every downstream contract, which are 1e-8..1e-12
    scale).  The polish and the residual gate each run the three-term
    recurrence once over the whole root vector: n numpy passes, not n^2
    scalar steps.
    """
    n = check_size(n, "n", 1)
    from scipy.linalg import eigh_tridiagonal  # most of the package's import time

    alpha, beta = float(params.alpha), float(params.beta)
    diag, off = _recurrence_coeffs(n, alpha, beta)
    try:
        x = eigh_tridiagonal(diag, off, eigvals_only=True)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalError(
            f"tridiagonal eigensolve failed for n={n}, alpha={alpha}, beta={beta}: {exc}"
        ) from exc
    p = _recurrence(n, alpha, beta, x)
    dp = (n + alpha + beta + 1) / 2 * _recurrence(n - 1, alpha + 1, beta + 1, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = p / dp
    # the |step| guard skips a root whose derivative is bad far from it
    x = np.where((dp != 0.0) & (np.abs(step) < 1e-8), x - step, x)
    if not (np.all(np.diff(x) > 0) and x[0] > -1 and x[-1] < 1):
        raise NumericalError(
            f"zero set for n={n}, alpha={alpha}, beta={beta} is not strictly "
            f"ordered/interior after polish"
        )
    scale = max(
        1.0,
        math.exp(value_at_one_log(n, params)),
        math.exp(value_at_minus_one_signed_log(n, params)),
    )
    residual = float(np.max(np.abs(_recurrence(n, alpha, beta, x))))
    if not residual <= 1e-8 * scale:
        raise NumericalError(
            f"zero residual {residual:.3e} exceeds 1e-8 * {scale:.3e} "
            f"for n={n}, alpha={alpha}, beta={beta}"
        )
    return ZeroSet(n=n, params=params, points=tuple(x.tolist()), residual=residual)


def discriminant_log(n: int, params: JacobiParams) -> Scalar:
    """log D_n^(alpha,beta) from the closed product formula.

    -n(n-1) log 2 + sum_{v=1..n} [ (v-2n+2) log v + (v-1) log(v+alpha)
    + (v-1) log(v+beta) + (n-v) log(v+n+alpha+beta) ], summed exactly and
    rounded once by ``fsum`` (k^k factors overflow near n ~ 150 if
    exponentiated).
    """
    n = check_size(n, "n", 1)
    ctx = active()
    alpha, beta = ctx.real(params.alpha), ctx.real(params.beta)
    vs = range(1, n + 1)
    return ctx.fsum(chain(
        (-n * (n - 1) * ctx.ln2,),
        ((v - 2 * n + 2) * ctx.log(ctx.real(v)) for v in vs),
        ((v - 1) * ctx.log(v + alpha) for v in vs),
        ((v - 1) * ctx.log(v + beta) for v in vs),
        ((n - v) * ctx.log(v + n + alpha + beta) for v in vs),
    ))
