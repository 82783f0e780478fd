"""Scalar arithmetic modes.

Two modes are supported and applied uniformly at run time:

* ``"std"`` -- ordinary float64 arithmetic via :mod:`math` (about 16
  significant decimal digits),
* ``"ext"`` -- mpmath arithmetic carrying :data:`EXTENDED_DPS` significant
  decimal digits, for verifying high-order expansion tails that fall below
  the float64 noise floor of the O(n^2) energies.

Numeric kernels obtain the active :class:`Context` through :func:`active`
and route elementary functions, sums and transcendental constants through
it; plain Python operators then keep the scalar type (float or ``mpf``)
throughout a computation.  Sums go through :meth:`Context.fsum`, which
rounds the exact sum of its terms once (``math.fsum`` / ``mpmath.fsum``).

:func:`use` sets the process-wide default mode (the CLI's start-up
setting).  :func:`precision_mode` overrides it for the current thread (or
asyncio task) only, through a :class:`contextvars.ContextVar`, so threads
in different modes get their own scalar types.  ``mpmath``'s working
precision, ``mpmath.mp.dps``, is still process-global: entering ``ext``
sets it to :data:`EXTENDED_DPS` and leaving restores it for every thread,
so ``ext`` blocks that overlap in two threads can cut each other's digits.
"""
from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from fractions import Fraction
from typing import Union

import mpmath

from .exceptions import DomainError

Scalar = Union[float, mpmath.mpf]

STD = "std"
EXT = "ext"

#: decimal digits carried in extended mode
EXTENDED_DPS = 32

#: digits carried beyond the mode's by :meth:`Context.guarded`
_GUARD_DPS = 10


def as_fraction(x) -> Fraction:
    """Exact rational value of ``x`` (int, float, Fraction or mpf).

    Every finite binary float *is* a rational, so no rounding occurs.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"cannot convert non-finite value {x!r} to a rational")
        return Fraction(x)
    if isinstance(x, mpmath.mpf):
        if not mpmath.isfinite(x):
            raise DomainError(f"cannot convert non-finite value {x!r} to a rational")
        sign, man, exp, _ = x._mpf_
        value = Fraction(man) * Fraction(2) ** exp
        return -value if sign else value
    raise TypeError(f"no exact rational conversion for {type(x).__name__}")


class Context:
    """Arithmetic backend for one precision mode."""

    __slots__ = ("mode", "dps", "_consts")

    def __init__(self, mode: str):
        if mode not in (STD, EXT):
            raise ValueError(f"unknown precision mode {mode!r} (expected 'std' or 'ext')")
        self.mode = mode
        self.dps = 16 if mode == STD else EXTENDED_DPS
        self._consts: dict = {}

    def __repr__(self) -> str:
        return f"Context(mode={self.mode!r}, dps={self.dps})"

    @property
    def key(self) -> tuple:
        return (self.mode, self.dps)

    # -- conversions -----------------------------------------------------

    def real(self, x) -> Scalar:
        """Convert ``x`` to the active scalar type, rounding once."""
        if isinstance(x, Fraction):
            if self.mode == STD:
                return x.numerator / x.denominator
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return float(x) if self.mode == STD else mpmath.mpf(x)

    def zero(self) -> Scalar:
        return 0.0 if self.mode == STD else mpmath.mpf(0)

    # -- elementary functions ---------------------------------------------

    def log(self, x) -> Scalar:
        return math.log(x) if self.mode == STD else mpmath.log(x)

    def lgamma(self, x) -> Scalar:
        # caller guarantees x > 0
        return math.lgamma(x) if self.mode == STD else mpmath.loggamma(x)

    def fsum(self, terms) -> Scalar:
        """The exact sum of ``terms`` (any iterable), rounded once."""
        return math.fsum(terms) if self.mode == STD else mpmath.fsum(terms)

    # -- transcendental values at guarded precision --------------------------

    def guarded(self, fn) -> Scalar:
        """``fn()`` evaluated by mpmath with :data:`_GUARD_DPS` digits beyond
        the mode's, then rounded once into the active scalar type (after the
        guard digits are dropped, so ``ext`` results carry ``dps`` digits)."""
        with mpmath.workdps(self.dps + _GUARD_DPS):
            raw = fn()
        return self.real(raw)

    def _const(self, name: str, fn) -> Scalar:
        value = self._consts.get(name)
        if value is None:
            value = self._consts[name] = self.guarded(fn)
        return value

    @property
    def ln2(self) -> Scalar:
        return self._const("ln2", lambda: mpmath.log(2))

    @property
    def ln_pi(self) -> Scalar:
        return self._const("ln_pi", lambda: mpmath.log(mpmath.pi))

    @property
    def ln_2pi(self) -> Scalar:
        return self._const("ln_2pi", lambda: mpmath.log(2 * mpmath.pi))

    @property
    def log_glaisher(self) -> Scalar:
        return self._const("log_glaisher", lambda: mpmath.log(mpmath.glaisher))


_CONTEXTS = {STD: Context(STD), EXT: Context(EXT)}
_default = _CONTEXTS[STD]
#: mpmath.mp.dps under the std default, restored when use() leaves ext
_std_dps = mpmath.mp.dps
#: the mode set by precision_mode in this thread or task; unset: the default
_override: ContextVar[Context] = ContextVar("fekete_precision")


def _context(mode: str) -> Context:
    if mode not in _CONTEXTS:
        raise ValueError(f"unknown precision mode {mode!r} (expected 'std' or 'ext')")
    return _CONTEXTS[mode]


def active() -> Context:
    """The context currently in force."""
    return _override.get(_default)


def use(mode: str) -> Context:
    """Switch the process-wide default mode (startup-time configuration);
    leaving ``ext`` restores the ``mpmath.mp.dps`` that ``ext`` replaced."""
    global _default, _std_dps
    ctx = _context(mode)
    if _default.mode == STD:
        _std_dps = mpmath.mp.dps
    mpmath.mp.dps = ctx.dps if ctx.mode == EXT else _std_dps
    _default = ctx
    return ctx


@contextmanager
def precision_mode(mode: str):
    """Switch modes for the current thread (or task) inside the block."""
    ctx = _context(mode)
    token = _override.set(ctx)
    try:
        with mpmath.workdps(ctx.dps) if ctx.mode == EXT else nullcontext():
            yield ctx
    finally:
        _override.reset(token)
