"""Shared numeric helpers for the test suite."""
from __future__ import annotations

import math
from itertools import chain

from fekete.precision import active


def rel_close(actual, expected, rtol: float, floor: float = 1e-300) -> bool:
    """|actual - expected| <= rtol * max(|actual|, |expected|, floor)."""
    actual = float(actual)
    expected = float(expected)
    scale = max(abs(actual), abs(expected), floor)
    return abs(actual - expected) <= rtol * scale


def fit_slope(ns, errors) -> float:
    """Least-squares slope of log(error) against log(n)."""
    xs = [math.log(float(n)) for n in ns]
    ys = [math.log(max(float(e), 5e-324)) for e in errors]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var


def discriminant_log_product(n: int, alpha, beta):
    """log D_n^(alpha,beta) from the closed product formula, one ``fsum``
    over 4n logarithms in the active precision (the independent route for
    the closed form of ``jacobi.discriminant_log``):

    -n(n-1) log 2 + sum_{v=1..n} [ (v-2n+2) log v + (v-1) log(v+alpha)
    + (v-1) log(v+beta) + (n-v) log(v+n+alpha+beta) ].
    """
    ctx = active()
    alpha, beta = ctx.real(alpha), ctx.real(beta)
    vs = range(1, n + 1)
    return ctx.fsum(chain(
        (-n * (n - 1) * ctx.ln2,),
        ((v - 2 * n + 2) * ctx.log(ctx.real(v)) for v in vs),
        ((v - 1) * ctx.log(v + alpha) for v in vs),
        ((v - 1) * ctx.log(v + beta) for v in vs),
        ((n - v) * ctx.log(v + n + alpha + beta) for v in vs),
    ))
