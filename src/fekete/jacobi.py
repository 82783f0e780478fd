"""Jacobi polynomial quantities, kept in the log domain where magnitudes
explode: leading coefficient, endpoint values, zeros, and the discriminant
in closed form."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from mpmath.libmp import from_int, ln2_fixed, mpf_add, round_nearest

from .exceptions import (CapacityError, NumericalError, check_finite_above, check_size,
                         ordered_interior)
from .precision import Scalar, active, integer_ratio, round_ratio
from .specfun import fixed_bits, log_gamma_g_fixed, memo


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
        """Exponents 2p - 1, 2q - 1 in float64; :class:`CapacityError` for a
        charge so small (below about 2.8e-17) that its exponent rounds to -1."""
        check_finite_above(0, "endpoint charges", p=p, q=q)
        alpha, beta = 2 * p - 1, 2 * q - 1
        if alpha == -1 or beta == -1:
            name, charge = ("p", p) if alpha == -1 else ("q", q)
            raise CapacityError(f"exponent 2{name} - 1 rounds to -1 in float64 at {name}={charge}")
        return cls(alpha=alpha, beta=beta)

    @property
    def p(self) -> float:
        return (self.alpha + 1) / 2

    @property
    def q(self) -> float:
        return (self.beta + 1) / 2


@dataclass(frozen=True)
class ZeroSet:
    """The n simple zeros of P_n^(alpha,beta), ascending, all in (-1, 1).

    ``step_bound`` is the largest |P_n(x_i)/P_n'(x_i)| at the eigenvalues,
    the Newton step that polished them: a distance in x, and the value the
    gate of :func:`zeros` accepted.
    """

    n: int
    params: JacobiParams
    points: tuple[float, ...]
    step_bound: float


def _log_value(n: int, params: JacobiParams, index: int) -> Scalar:
    """Element ``index`` of :func:`log_values_fixed` at the exponents of
    ``params``, rounded once; n is checked.  The size is that of the
    exponents the element involves: alpha + beta + 2 for log lambda_n and
    log D_n, alpha + 2 for log P_n(1), beta + 2 for log |P_n(-1)|.

    log P_n(1) = sum_k log(1 + alpha/k) is about alpha log n, while its
    lgamma terms are about n log n: at any alpha != 0 the difference
    cancels about log2(n/|alpha|) bits, so the size is at least
    sqrt(n/|alpha|) (exact_prec adds twice the bits of the size); likewise
    for beta at -1."""
    (a, da), (b, db) = integer_ratio(params.alpha), integer_ratio(params.beta)
    size = None
    if index >= 2:
        e, de = (a, da) if index == 2 else (b, db)
        size = (e + 2 * de, de)
        wide = 1 << max(0, n.bit_length() + de.bit_length() - abs(e).bit_length() + 1) // 2
        if e and wide * de > e + 2 * de:
            size = (wide, 1)
    fp, (value,) = log_values_fixed(n, (a + da, da), (b + db, db), (index,), size)
    return active().ratio(value, 1 << fp)


def leading_coeff_log(n: int, params: JacobiParams) -> Scalar:
    """log lambda_n = -n log 2 + lgamma(2n+a+b+1) - lgamma(n+a+b+1) - lgamma(n+1)."""
    return _log_value(check_size(n, "n", 0), params, 0)


def value_at_one_log(n: int, params: JacobiParams) -> Scalar:
    """log P_n(1) = log[(1+alpha)_n / n!]."""
    return _log_value(check_size(n, "n", 0), params, 2)


def _recurrence_coeffs(n: int, alpha: float, beta: float):
    """Diagonal and off-diagonal of the n x n symmetric Jacobi matrix, as
    numpy arrays: the orthonormal three-term recurrence of P_k^(alpha,beta).

    Built from c = alpha + beta + 2 as (alpha + 1) + (beta + 1), with the
    integer parts added last and alpha^2 - beta^2 as a product: with
    exponents near -1, 2 + alpha and alpha^2 round, and that rounding
    survives the cancellation.  :class:`CapacityError` when an entry over-
    or underflows float64: a diagonal entry that is not finite, or an
    off-diagonal one that is not finite and positive."""
    import numpy as np  # only the float64 kernels load numpy

    c = (alpha + 1) + (beta + 1)
    with np.errstate(all="ignore"):
        k = np.arange(n, dtype=float)
        s = (2 * k - 2) + c
        diag = np.empty(n)
        diag[0] = (beta - alpha) / c
        diag[1:] = (beta - alpha) * (beta + alpha) / (s[1:] * (s[1:] + 2))
        off = np.empty(max(n - 1, 0))
        off[:1] = math.sqrt(4 * (alpha + 1) * (beta + 1) / (c * c * (c + 1)))
        kk = k[2:]
        off[1:] = np.sqrt(4 * kk * (kk + alpha) * (kk + beta) * ((kk - 2) + c)
                          / (s[2:] ** 2 * (s[2:] + 1) * (s[2:] - 1)))
    if not (np.isfinite(diag).all() and ((off > 0) & (off < math.inf)).all()):
        raise CapacityError(f"the Jacobi matrix for n={n}, alpha={alpha}, beta={beta} "
                            f"over- or underflows float64")
    return diag, off


def _newton_step(diag, off, x):
    """P_n(x)/P_n'(x) at every point of the numpy array ``x``, for the
    polynomial whose zeros are the eigenvalues of the Jacobi matrix
    (``diag``, ``off``), n = len(diag).

    One complex pass of the rescaled monic recurrence
    q_{k+1} = ((z - a_k)/r_k) q_k - q_{k-1}, q_0 = 1, q_{-1} = 0, with
    r_0 = 1 and r_k = b_{k-1}^2/r_{k-1}, so that q_k = pi_k/gamma_k for the
    monic pi_k of the same matrix and gamma_k = r_0 ... r_{k-1}.  At the
    complex step z = x + i eps, eps = 2^-400 (Squire & Trapp, SIAM Rev. 40
    (1998) 110), pi_k(z) = pi_k(x) - eps^2 pi_k''(x)/2 + ...
    + i eps (pi_k'(x) - eps^2 pi_k'''(x)/6 + ...), so Re q_k is
    pi_k(x)/gamma_k and Im q_k is eps pi_k'(x)/gamma_k up to a relative
    eps^2 = 2^-800 times ratios of derivatives: far below half an ulp of
    any state entry.  eps^2 is still a normal double, so a product of two
    imaginary parts keeps its digits; and no difference quotient is taken,
    so the derivative carries no cancellation.  The step is
    eps Re q_n / Im q_n.  The factors (z - a_k)/r_k, as products with
    1/r_k, take one broadcast subtract and one multiply per 32 degrees;
    each degree is then two numpy calls.  Every 16 degrees each point's
    pair (q_k, q_{k-1}) is scaled, exactly, by the power of two that brings
    |Re q_k| + 2^400 |Im q_k| to [1/2, 1): at an eigenvalue the q_k grow
    like the inverse square root of its Gauss weight, past the float64
    range at large n and exponents (n = 1000, alpha = 1000).
    """
    import numpy as np  # only the float64 kernels load numpy

    eps = 2.0 ** -400
    r = [1.0]
    for b in off.tolist():
        # r_k r_{k-1} is b_{k-1}^2 to two roundings, whatever k; a zero r_k
        # comes only from entries that over- or underflowed: NaN meets the gate
        r.append(b * b / r[-1] if r[-1] else math.nan)
    # complex columns, so that the block products take no casting pass
    a = diag.astype(complex)[:, None]
    inv_r = (1.0 / np.array(r)).astype(complex)[:, None]
    z = x + 1j * eps
    prev, cur, nxt = np.zeros_like(z), np.ones_like(z), np.empty_like(z)
    for k0 in range(0, len(diag), 32):
        u = np.subtract(z, a[k0:k0 + 32])
        u *= inv_r[k0:k0 + 32]
        for k, u_k in enumerate(u, k0):
            if k % 16 == 15:
                shift = -np.frexp(np.abs(cur.real) + np.abs(cur.imag) / eps)[1]
                for v in (cur.real, cur.imag, prev.real, prev.imag):
                    np.ldexp(v, shift, out=v)
            np.multiply(u_k, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
    with np.errstate(divide="ignore", invalid="ignore"):
        return eps * cur.real / cur.imag


def zeros(n: int, params: JacobiParams) -> ZeroSet:
    """Zeros of P_n^(alpha,beta), ascending.

    Computed as eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub-Welsch) by LAPACK's dsterf, :class:`NumericalError` where it
    fails, each polished by one Newton step from
    :func:`_newton_step`, one complex-step pass of the same matrix's monic
    recurrence over the whole root vector; always float64 (sufficient for
    every downstream contract, which are 1e-8..1e-12 scale).  The gate: every step must be
    finite and below 1e-8, else :class:`NumericalError`; a step is a
    distance in x, so the gate does not depend on the size of P_n.
    :class:`CapacityError` for what float64 cannot hold: a Jacobi matrix
    that over- or underflows (exponents past about 1e77), zeros closer to
    each other or to +-1 than float64 resolves (an extreme zero rounding
    onto +-1 at exponents near -1; from about 1e20 at n = 12 the zeros near
    -1 crowd onto it, and their eigenvalues fail the gate), or an n past
    the sizes numpy can index.
    """
    n = check_size(n, "n", 1)
    if n > sys.maxsize // 8:  # numpy's arrays hold at most sys.maxsize bytes
        raise CapacityError(f"n={n} is past the sizes numpy can index")
    import numpy as np
    from scipy.linalg.lapack import dsterf  # most of the package's import time

    alpha, beta = float(params.alpha), float(params.beta)
    diag, off = _recurrence_coeffs(n, alpha, beta)
    # the root-free QR that scipy's eigh_tridiagonal reaches through ?stevd
    # when no eigenvectors are asked for; its wrapper takes no empty e
    x, info = dsterf(diag, off) if n > 1 else (diag.copy(), 0)
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolve failed for n={n}, alpha={alpha}, "
                             f"beta={beta}: LAPACK dsterf info={info}")
    step = _newton_step(diag, off, x)
    step_bound = float(np.max(np.abs(step)))  # NaN if any step is NaN
    # the eigensolve and the polish move a zero by rounding only, so zeros
    # that are not ordered and interior lie closer to each other or to +-1
    # than float64 resolves; eigenvalues crowded so fail the gate with it
    # (coincident eigenvalues take a Newton step of inf)
    if step_bound < 1e-8:
        x -= step
    elif ordered_interior(x):
        raise NumericalError(
            f"Newton step {step_bound:.3e} at an eigenvalue is not below 1e-8 "
            f"for n={n}, alpha={alpha}, beta={beta}"
        )
    if not (step_bound < 1e-8 and ordered_interior(x)):
        raise CapacityError(
            f"the zeros for n={n}, alpha={alpha}, beta={beta} are not ordered, "
            f"interior float64s: they lie closer than float64 resolves"
        )
    return ZeroSet(n=n, params=params, points=tuple(x.tolist()), step_bound=step_bound)


def discriminant_log(n: int, params: JacobiParams) -> Scalar:
    """log D_n^(alpha,beta), from log Barnes G and log Gamma in O(1) per n
    (see :func:`log_values_fixed`), rounded once; G itself, of size
    exp(n^2 log n), is never formed."""
    return _log_value(check_size(n, "n", 1), params, 1)


# -- the one formula for the Jacobi quantities --------------------------------


def log_values_fixed(n: int, ap1: tuple[int, int], bp1: tuple[int, int], outputs=(0, 1, 2, 3),
                     size: tuple[int, int] | None = None) -> tuple[int, tuple[int, ...]]:
    """(fp, values): (log lambda_n, log D_n, log P_n(1), log |P_n(-1)|) of
    P_n^(a,b), or the elements of that tuple at the indices ``outputs``,
    each an integer scaled by 2^fp, for n >= 0 and a + 1 > 0, b + 1 > 0
    given as exact rationals ``ap1`` and ``bp1`` (num, den), so that 2p and
    2q reach the formulas unrounded, also when p or q is tiny.  With
    s = a + b + 1:

        log lambda_n = -n log 2 + lgamma(2n+s) - lgamma(n+s) - lgamma(n+1),
        log P_n(1) = lgamma(n+a+1) - lgamma(a+1) - lgamma(n+1),

    log |P_n(-1)| the same in b, and log D_n from the closed product
    formula -n(n-1) log 2 + sum_{v=1..n} [ (v-2n+2) log v + (v-1) log(v+a)
    + (v-1) log(v+b) + (n-v) log(v+n+a+b) ], whose sums are, in log G and
    lgamma (G(x+1) = Gamma(x) G(x)),

        (2-n) lgamma(n+1) - log G(n+1),
        T(a) = (n-1) lgamma(n+a+1) - log G(n+a+1) + lgamma(a+1) + log G(a+1),
        T(b) likewise, and log G(2n+s) - log G(n+s) - n lgamma(n+s).

    The kernel :func:`~fekete.specfun.log_gamma_g_fixed` runs at the
    precision that :meth:`~fekete.precision.Context.exact_prec` of the
    active context gives for ``size`` (num, den), a scale at which the
    formula cancels about 2 log2 size bits: by default a + b + 2, that of
    log lambda_n and log D_n.  fp is its :func:`~fekete.specfun.fixed_bits`.
    At that precision a + 1 and b + 1 are rounded once, and the arguments
    n+1, n+a+1, n+b+1, n+s and 2n+s formed from them, each rounded once.  Each
    distinct argument that the requested outputs involve takes one kernel
    call, cached for this call only under its mpf tuple -- n+1, n+s and
    2n+s for log lambda_n, n+1 and n+a+1 for log P_n(1), all five for
    log D_n -- and a + 1 and b + 1 one :func:`~fekete.specfun.memo` entry
    each.  Exactly 0 at n = 0, and log D_1 = 0.
    """
    prec = active().exact_prec(*(size or (ap1[0] * bp1[1] + bp1[0] * ap1[1], ap1[1] * bp1[1])))
    fp = fixed_bits(prec)
    if n == 0:
        return fp, (0,) * len(outputs)  # lambda_0 = D_0 = P_0 = 1
    ap1, bp1 = round_ratio(*ap1, prec), round_ratio(*bp1, prec)
    ab2 = mpf_add(ap1, bp1, prec, round_nearest)  # a + b + 2, which keeps a tiny a + 1 + b + 1
    x1 = from_int(n + 1, prec, round_nearest)
    xa, xb = (mpf_add(from_int(n), x, prec, round_nearest) for x in (ap1, bp1))
    xs, x2s = (mpf_add(from_int(m), ab2, prec, round_nearest) for m in (n - 1, 2 * n - 1))
    values = {}

    def k(x):  # n + 1 and an equal n + a + 1 are one key: mpf tuples are normalised
        if x not in values:
            values[x] = log_gamma_g_fixed(x, prec)
        return values[x]

    ln2 = ln2_fixed(fp)

    def lam():
        return -n * ln2 + k(x2s)[0] - k(xs)[0] - k(x1)[0]

    def disc():
        if n == 1:
            return 0
        (g1, G1), (ga, Ga), (gb, Gb), (gs, Gs) = k(x1), k(xa), k(xb), k(xs)
        ga0, Ga0 = memo(log_gamma_g_fixed, ap1, prec)
        gb0, Gb0 = memo(log_gamma_g_fixed, bp1, prec)
        return (-n * (n - 1) * ln2 + (2 - n) * g1 - G1
                + (n - 1) * (ga + gb) - Ga - Gb + ga0 + Ga0 + gb0 + Gb0
                + k(x2s)[1] - Gs - n * gs)

    def at_end(x, xp1):
        return k(x)[0] - memo(log_gamma_g_fixed, xp1, prec)[0] - k(x1)[0]

    formulas = (lam, disc, lambda: at_end(xa, ap1), lambda: at_end(xb, bp1))
    return fp, tuple(formulas[i]() for i in outputs)
