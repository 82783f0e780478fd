"""Jacobi polynomial quantities, kept in the log domain where magnitudes
explode: leading coefficient, endpoint values, zeros, and the discriminant
in closed form."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath

from .exceptions import CapacityError, NumericalError, check_finite_above, check_size
from .precision import STD, Scalar, active
from .specfun import log_barnes_g_mp, memo


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
    if n == 0:
        return active().zero()  # lambda_0 = 1
    a, b = params.alpha, params.beta
    return active().guarded(lambda a, b: leading_coeff_log_mp(n, a, b), a, b, size=a + b + 2)


def value_at_one_log(n: int, params: JacobiParams) -> Scalar:
    """log P_n(1) = log[(1+alpha)_n / n!]."""
    n = check_size(n, "n", 0)
    if n == 0:
        return active().zero()
    a, b = params.alpha, params.beta
    return active().guarded(lambda a: value_at_one_log_mp(n, a), a, size=a + b + 2)


def _recurrence(n: int, alpha: float, beta: float, x):
    """P_n^(alpha,beta)(x) by the forward three-term recurrence, elementwise
    on a float or a numpy array of floats (a float in, a numpy scalar out).

    The coefficients of every step k = 2..n are one numpy table, built once
    per call and normalised by the leading one, so step k is
    P_k = (A_k + B_k x) P_{k-1} - C_k P_{k-2}: five in-place ufunc calls on
    buffers reused from step to step, no allocation and no scalar
    arithmetic.  The table is built from c = alpha + beta + 2 (as
    (alpha + 1) + (beta + 1)), alpha and beta with the integer part added
    last, and from alpha^2 - beta^2 as a product: with exponents near -1,
    2 + alpha and alpha^2 round, and that rounding survives the cancellation.
    """
    import numpy as np  # only the float64 kernels load numpy

    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev[()]
    c = (alpha + 1) + (beta + 1)
    diff = (alpha - beta) * (alpha + beta)
    p = np.empty_like(x)  # an array even for a float x: the loop writes in place
    p[...] = (alpha + 1) + c * (x - 1) / 2
    k = np.arange(2, n + 1, dtype=float)
    s = (2 * k - 2) + c
    a1 = 2 * k * ((k - 2) + c) * ((2 * k - 4) + c)
    a2 = ((2 * k - 3) + c) * diff
    a3 = ((2 * k - 3) + c) * s * ((2 * k - 4) + c)
    a4 = 2 * ((k - 1) + alpha) * ((k - 1) + beta) * s
    t = np.empty_like(x)
    for A, B, C in zip((a2 / a1).tolist(), (a3 / a1).tolist(), (a4 / a1).tolist()):
        np.multiply(x, B, out=t)
        t += A
        t *= p
        p_prev *= C  # P_{k-2} is not needed past this step
        t -= p_prev
        p_prev, p, t = p, t, p_prev
    return p[()]


def _recurrence_coeffs(n: int, alpha: float, beta: float):
    """Diagonal and off-diagonal of the n x n symmetric Jacobi matrix, as
    numpy arrays, with the integer parts added last as in :func:`_recurrence`."""
    import numpy as np  # only the float64 kernels load numpy

    c = (alpha + 1) + (beta + 1)
    k = np.arange(n, dtype=float)
    s = (2 * k - 2) + c
    diag = np.empty(n)
    diag[0] = (beta - alpha) / c
    if n > 1:
        diag[1:] = (beta - alpha) * (beta + alpha) / (s[1:] * (s[1:] + 2))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = math.sqrt(4 * (alpha + 1) * (beta + 1) / (c ** 2 * (c + 1)))
    if n > 2:
        kk = k[2:]
        sq = (
            4
            * kk
            * (kk + alpha)
            * (kk + beta)
            * ((kk - 2) + c)
            / (s[2:] ** 2 * (s[2:] + 1) * (s[2:] - 1))
        )
        off[1:] = np.sqrt(sq)
    return diag, off


def zeros(n: int, params: JacobiParams) -> ZeroSet:
    """Zeros of P_n^(alpha,beta), ascending.

    Computed as eigenvalues of the symmetric tridiagonal recurrence matrix
    (Golub-Welsch) followed by a single Newton polish; always float64
    (sufficient for every downstream contract, which are 1e-8..1e-12
    scale).  The polish (P_n and its derivative, P_{n-1}^(alpha+1,beta+1))
    and the residual gate run :func:`_recurrence` over the whole root
    vector, three passes of n steps, each step five in-place numpy calls.
    An extreme zero that rounds onto +-1 (exponents near -1) raises
    :class:`CapacityError`.
    """
    n = check_size(n, "n", 1)
    import numpy as np
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
    if not np.all(np.diff(x) > 0):
        raise NumericalError(
            f"zero set for n={n}, alpha={alpha}, beta={beta} is not strictly "
            f"ordered after polish"
        )
    # the eigensolve and the polish move a zero by rounding only, so an
    # ordered set that reaches +-1 has an extreme zero within float64
    # rounding of the endpoint
    if not (x[0] > -1 and x[-1] < 1):
        raise CapacityError(
            f"an extreme zero for n={n}, alpha={alpha}, beta={beta} rounds onto "
            f"+-1: it is not a strictly interior float64"
        )
    # max(1, |P_n(1)|, |P_n(-1)|), |P_n(+-1)| = (1+alpha)_n / n! and (1+beta)_n / n!,
    # in float64 so the zero finder stays off the mpmath path
    log_end = max(math.lgamma(n + s + 1) - math.lgamma(s + 1) for s in (alpha, beta))
    scale = max(1.0, math.exp(log_end - math.lgamma(n + 1)))
    residual = float(np.max(np.abs(_recurrence(n, alpha, beta, x))))
    if not residual <= 1e-8 * scale:
        raise NumericalError(
            f"zero residual {residual:.3e} exceeds 1e-8 * {scale:.3e} "
            f"for n={n}, alpha={alpha}, beta={beta}"
        )
    return ZeroSet(n=n, params=params, points=tuple(x.tolist()), residual=residual)


def discriminant_log(n: int, params: JacobiParams) -> Scalar:
    """log D_n^(alpha,beta), from log Barnes G and log Gamma in O(1) per n
    (see :func:`discriminant_log_mp`), rounded once; log G is the series
    kernel :func:`fekete.specfun.log_barnes_g_mp`, so G itself, of size
    exp(n^2 log n), is never formed."""
    n = check_size(n, "n", 1)
    a, b = params.alpha, params.beta
    check_std_size(n, a + b + 2)
    return active().guarded(lambda a, b: discriminant_log_mp(n, a, b), a, b, size=a + b + 2)


#: past this n, (log 2) n^2 alone exceeds the float64 maximum
_STD_MAX_SIZE = math.sqrt(sys.float_info.max) / math.sqrt(math.log(2))


def check_std_size(n: int, size: float) -> None:
    """Raise :class:`CapacityError` at once in ``std`` when n is past
    :data:`_STD_MAX_SIZE` and ``size`` (alpha + beta + 2 of the exponents
    involved) is at most n.

    There log D_n and the exact energies are (log 2) n^2 times a factor in
    [1, 1.8], up to O(log(n)/n), so they overflow float64; checking first
    reports that before any mpmath evaluation.  Larger exponents are left
    to the evaluation, whose rounded value reports an overflow: at
    p = 1.62 n, q = 1 the potential energy crosses zero.
    """
    if active().mode == STD and n > _STD_MAX_SIZE and size <= n:
        raise CapacityError(
            f"(log 2) n^2 is not finite in std precision for n > {_STD_MAX_SIZE:.4g}")


# -- mpf kernels: the one formula for each Jacobi quantity -------------------
#
# They take mpf exponents and run at the caller's mpmath precision; the
# public functions above and the exact energies evaluate them through
# Context.guarded, with alpha + beta + 2 as its size.


def leading_coeff_log_mp(n: int, a, b):
    """log lambda_n^(a,b) for n >= 1 (and 0 at n = 0 when a + b + 1 > 0)."""
    ab = a + b
    return (-n * mpmath.ln2 + mpmath.loggamma(2 * n + ab + 1)
            - mpmath.loggamma(n + ab + 1) - mpmath.loggamma(n + 1))


def value_at_one_log_mp(n: int, a):
    """log P_n^(a,b)(1) = lgamma(n+a+1) - lgamma(a+1) - lgamma(n+1) for n >= 0."""
    return mpmath.loggamma(n + a + 1) - mpmath.loggamma(a + 1) - mpmath.loggamma(n + 1)


def _t_sum(n: int, s):
    """T(s) = sum_{v=1..n} (v-1) log(v+s)
    = (n-1) lgamma(n+s+1) - log G(n+s+1) + log G(s+2)."""
    return ((n - 1) * mpmath.loggamma(n + s + 1) - log_barnes_g_mp(n + s + 1)
            + memo(log_barnes_g_mp, s + 2))


def discriminant_log_mp(n: int, a, b):
    """log D_n^(a,b) for n >= 1 (0 exactly at n = 1; at n = 0 with a + b > -1
    it gives log D_0 = 0 up to rounding) from the closed product formula

        -n(n-1) log 2 + sum_{v=1..n} [ (v-2n+2) log v + (v-1) log(v+a)
        + (v-1) log(v+b) + (n-v) log(v+n+a+b) ],

    with each sum in log Barnes G (:func:`~fekete.specfun.log_barnes_g_mp`)
    and log Gamma (G(z+1) = Gamma(z) G(z)):
    sum (v-2n+2) log v = (2-n) lgamma(n+1) - log G(n+1), the middle sums
    are T(a) and T(b) of :func:`_t_sum`, and the last is
    log G(2n+a+b+1) - log G(n+a+b+2) - (n-1) lgamma(n+a+b+1).
    """
    if n == 1:
        return mpmath.mpf(0)  # D_1 = 1
    c = n + a + b
    return (-n * (n - 1) * mpmath.ln2
            + (2 - n) * mpmath.loggamma(n + 1) - log_barnes_g_mp(n + 1)
            + _t_sum(n, a) + _t_sum(n, b)
            + log_barnes_g_mp(n + c + 1) - log_barnes_g_mp(c + 2)
            - (n - 1) * mpmath.loggamma(c + 1))
