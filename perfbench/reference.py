"""Independent reference values, computed outside the timed region.

Exact energies and discriminants use closed forms in the Hurwitz zeta
derivative and log-gamma at REF_DPS digits instead of the package's
O(n) term loops:

    sum_{v=1..m} (v + a) log(v + a) = zeta'(-1, m + a + 1) - zeta'(-1, a + 1)
    sum_{v=1..m} log(v + a)         = lgamma(m + a + 1) - lgamma(a + 1)

The potential and interval energies come from the (p, q)- and N-point
discriminant product formulas, a different identity from the Jacobi
route the package takes.  Zeros come from ``scipy.special.roots_jacobi``.
"""
from __future__ import annotations

from functools import lru_cache

import mpmath
from scipy.special import roots_jacobi

REF_DPS = 40


@lru_cache(maxsize=None)
def _zp(x):
    """zeta'(-1, x); cached, since the constant terms zeta'(-1, a + 1) recur."""
    return mpmath.zeta(-1, x, 1)


def _xlogx_sum(a, m: int):
    """sum_{v=1..m} (v + a) log(v + a)."""
    return _zp(m + a + 1) - _zp(a + 1)


def _log_sum(a, m: int):
    """sum_{v=1..m} log(v + a)."""
    return mpmath.loggamma(m + a + 1) - mpmath.loggamma(a + 1)


def log_lambda(n: int, alpha, beta):
    """log of the leading coefficient of P_n^(alpha, beta)."""
    ab = mpmath.mpf(alpha) + beta
    return (-n * mpmath.log(2) + mpmath.loggamma(2 * n + ab + 1)
            - mpmath.loggamma(n + ab + 1) - mpmath.loggamma(n + 1))


def log_p1(n: int, alpha):
    """log P_n^(alpha, beta)(1) = log[(1 + alpha)_n / n!]."""
    return _log_sum(mpmath.mpf(alpha), n) - mpmath.loggamma(n + 1)


def log_disc(n: int, alpha, beta):
    """log D_n^(alpha, beta), the Jacobi discriminant product in closed form."""
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    c = n + a + b
    return (-n * (n - 1) * mpmath.log(2)
            + _xlogx_sum(0, n) + (2 - 2 * n) * mpmath.loggamma(n + 1)
            + _xlogx_sum(a, n) - (a + 1) * _log_sum(a, n)
            + _xlogx_sum(b, n) - (b + 1) * _log_sum(b, n)
            + (n + c) * _log_sum(c, n) - _xlogx_sum(c, n))


def pq_disc(n: int, p, q):
    """log of the n-th (p, q)-discriminant, the negative minimal potential energy."""
    p, q = mpmath.mpf(p), mpmath.mpf(q)
    c = 2 * p + 2 * q
    return (n * (n + c - 1) * mpmath.log(2)
            + _xlogx_sum(0, n) + _xlogx_sum(2 * p - 1, n) + _xlogx_sum(2 * q - 1, n)
            - (_zp(2 * n - 1 + c) - _zp(n - 1 + c)))


def disc_N(N: int):
    """log of the N-th discriminant of [-1, 1], the negative interval energy."""
    return (N * (N - 1) * mpmath.log(2) + N * mpmath.log(N)
            + 3 * _xlogx_sum(0, N - 1) - (_zp(2 * N - 1) - _zp(N - 1)))


@lru_cache(maxsize=None)
def exact(kind: str, n: int, p=None, q=None):
    """Reference value of what ``fekete exact/table/verify --kind kind`` reports at n."""
    with mpmath.workdps(REF_DPS):
        if kind == "interval":
            return -disc_N(n)
        if kind == "pq_disc":
            return pq_disc(n, p, q)
        if kind == "potential":
            return -pq_disc(n, p, q)
        alpha, beta = 2 * p - 1, 2 * q - 1
        if kind == "lambda":
            return log_lambda(n, alpha, beta)
        if kind == "p1":
            return log_p1(n, alpha)
        if kind == "disc":
            return log_disc(n, alpha, beta)
        if kind == "elliptic":
            return 2 * (n - 1) * log_lambda(n, alpha, beta) - log_disc(n, alpha, beta)
    raise ValueError(f"no reference for kind {kind!r}")


@lru_cache(maxsize=None)
def zeros(n: int, p: float, q: float) -> tuple[float, ...]:
    """Zeros of P_n^(2p-1, 2q-1), ascending, from scipy."""
    x, _ = roots_jacobi(n, 2 * p - 1, 2 * q - 1)
    return tuple(sorted(float(v) for v in x))


def rel_err(actual, expected) -> float:
    """|actual - expected| / max(|actual|, |expected|, 1)."""
    with mpmath.workdps(REF_DPS):
        a, e = mpmath.mpf(actual), mpmath.mpf(expected)
        return float(abs(a - e) / max(abs(a), abs(e), 1))
