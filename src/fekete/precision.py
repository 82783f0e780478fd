"""Scalar arithmetic modes.

Two modes are supported and applied uniformly at run time:

* ``"std"`` -- ordinary float64 arithmetic via :mod:`math` (about 16
  significant decimal digits),
* ``"ext"`` -- mpmath arithmetic carrying :data:`EXTENDED_DPS` significant
  decimal digits, for verifying high-order expansion tails that fall below
  the float64 noise floor of the O(n^2) energies.

Numeric kernels obtain the active :class:`Context` through :func:`active`
and route elementary functions and sums through it; plain Python
operators then keep the scalar type (float or ``mpf``) throughout a
computation.  Sums go through :meth:`Context.fsum`, which rounds the exact
sum of its terms once (``math.fsum`` / ``mpmath.fsum``).
Closed-form values are rounded once into the active scalar type.  Exact
energies and Jacobi quantities, formed from kernel values at the
precision :meth:`Context.exact_prec` gives, and the expansions' leading
and tail coefficients are one integer numerator over one integer
denominator, rounded by :meth:`Context.ratio`; each truncation of an
expansion is a fixed-point integer with a known error bound, rounded by
:meth:`Context.fixed` once that bound decides the rounding.
:meth:`Context.distance` gives the CLI's error column at the mode's
precision.

:func:`use` sets the process-wide default mode (the CLI's start-up
setting).  :func:`precision_mode` overrides it for the current thread (or
asyncio task) only, through a :class:`contextvars.ContextVar`, so threads
in different modes get their own scalar types.  ``mpmath``'s working
precision, ``mpmath.mp.dps``, is still process-global: entering ``ext``
sets it to :data:`EXTENDED_DPS` and leaving restores it for every thread.
Only :meth:`Context.real`, :meth:`Context.log` and :meth:`Context.fsum`
read it in ``ext``, so ``ext`` blocks that overlap in two threads can cut
each other's digits only in the configuration energies; the exact values
and the expansions, their truncations and the CLI's rows read no global
precision.
"""
from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from fractions import Fraction
from typing import Union

import mpmath
from mpmath.libmp import (dps_to_prec, finf, fnan, fninf, from_man_exp, mpf_abs, mpf_sub,
                          round_nearest, to_rational, to_str)

from .exceptions import CapacityError, DomainError

Scalar = Union[float, mpmath.mpf]

STD = "std"
EXT = "ext"

#: decimal digits carried in extended mode
EXTENDED_DPS = 32

#: digits carried beyond the mode's by closed forms (:meth:`Context.exact_prec`)
_GUARD_DPS = 10


def integer_ratio(x) -> tuple[int, int]:
    """(num, den), den > 0, with num/den the exact value of ``x`` (int,
    float, Fraction or mpf); unreduced for an mpf.

    Every finite binary float *is* a rational, so no rounding occurs.
    """
    if isinstance(x, mpmath.mpf) and x._mpf_ not in (finf, fninf, fnan):
        return to_rational(x._mpf_)
    if isinstance(x, (int, Fraction)) or isinstance(x, float) and math.isfinite(x):
        return x.as_integer_ratio()
    if isinstance(x, (float, mpmath.mpf)):
        raise DomainError(f"cannot convert non-finite value {x!r} to a rational")
    raise TypeError(f"no exact rational conversion for {type(x).__name__}")


def round_ratio(num: int, den: int, prec: int) -> tuple:
    """The rational num/den (integers, den > 0, in any terms) rounded once to
    nearest at ``prec`` bits, as an mpf tuple: the integer quotient q of
    num 2^k / den, with at least prec + 2 bits, plus a sticky half for a
    nonzero remainder, so that q + 1/2 lies between the same rounding
    midpoints as the exact quotient, as in ``mpf_div``.  (``from_rational``
    would first strip the trailing zero bits of num and den 8 at a time,
    which is quadratic in their number.)"""
    size = abs(num)
    extra = prec + 3 - size.bit_length() + den.bit_length()
    q, r = divmod(size << extra, den) if extra >= 0 else divmod(size, den << -extra)
    man = (q << 1) | (r > 0)
    return from_man_exp(-man if num < 0 else man, -extra - 1, prec, round_nearest)


class Context:
    """Arithmetic backend for one precision mode."""

    __slots__ = ("mode", "dps", "prec", "guard_prec")

    def __init__(self, mode: str):
        if mode not in (STD, EXT):
            raise ValueError(f"unknown precision mode {mode!r} (expected 'std' or 'ext')")
        self.mode = mode
        self.dps = 16 if mode == STD else EXTENDED_DPS
        #: bits of the scalar type: float64's, or mpmath's at ``dps`` digits
        self.prec = 53 if mode == STD else dps_to_prec(EXTENDED_DPS)
        #: bits of a closed form before its one rounding: :data:`_GUARD_DPS` digits more
        self.guard_prec = dps_to_prec(self.dps + _GUARD_DPS)

    def __repr__(self) -> str:
        return f"Context(mode={self.mode!r}, dps={self.dps})"

    # -- conversions -----------------------------------------------------

    def real(self, x) -> Scalar:
        """Convert ``x`` to the active scalar type, rounding once."""
        if isinstance(x, Fraction):
            return self.ratio(x.numerator, x.denominator)
        return float(x) if self.mode == STD else mpmath.mpf(x)

    def ratio(self, num: int, den: int) -> Scalar:
        """The rational num/den (integers, den > 0, in any terms) rounded once
        to nearest into the active scalar type: Python's correctly rounded
        int division in ``std``, :func:`round_ratio` at :attr:`prec` in
        ``ext``.  Raises :class:`CapacityError` when the quotient overflows
        float64 in ``std``."""
        if self.mode == STD:
            try:
                return num / den
            except OverflowError:
                raise CapacityError(f"{to_str(round_ratio(num, den, 53), 5)} is not finite "
                                    f"in std precision") from None
        return mpmath.mp.make_mpf(round_ratio(num, den, self.prec))

    def fixed(self, value: int, fp: int, err: int) -> Scalar | None:
        """value 2^-fp rounded to nearest into the active scalar type, for a
        quantity known only to lie within ``err`` units of 2^-fp of it:
        returned where every number in that range rounds alike (so the
        quantity itself is rounded once), None where ``err`` leaves the
        rounding undecided and more bits are needed: where the range holds a
        rounding midpoint, and where ``err`` reaches an eighth of the ulp, so
        that a range reaching below a power of two, where the ulp halves,
        holds none there either.  In ``std`` the ulp is float64's,
        subnormals included, and a result past its range raises
        :class:`CapacityError` as :meth:`ratio` does."""
        size = abs(value)
        shift = size.bit_length() - self.prec
        if self.mode == STD:
            shift = max(shift, fp - 1074)  # the subnormal ulp, 2^-1074
        if shift < 1:
            return None
        half = 1 << (shift - 1)
        rest = size & ((half << 1) - 1)
        if 4 * err >= half or abs(rest - half) <= err:
            return None
        man = (size >> shift) + (rest > half)
        if self.mode == STD:
            man = -man if value < 0 else man
            try:
                return math.ldexp(man, shift - fp)
            except OverflowError:
                raise CapacityError(f"{to_str(from_man_exp(man, shift - fp, 5), 5)} is not "
                                    f"finite in std precision") from None
        zeros = (man & -man).bit_length() - 1  # an mpf mantissa is odd
        man >>= zeros
        return mpmath.mp.make_mpf((int(value < 0), man, shift - fp + zeros, man.bit_length()))

    def distance(self, x: Scalar, y: Scalar) -> Scalar:
        """|x - y| of two scalars of this mode, rounded once at its
        precision (in ``ext`` not at mpmath's working precision)."""
        if self.mode == STD:
            return abs(x - y)
        return mpmath.mp.make_mpf(mpf_abs(mpf_sub(x._mpf_, y._mpf_, self.prec, round_nearest)))

    def exact_prec(self, num: int, den: int = 1) -> int:
        """The bits at which a closed form of size num/den > 0 is evaluated
        before its one rounding: :attr:`guard_prec` plus 2 mag(num/den) where
        the size exceeds 1, the mag (the least m with num/den < 2^m) of the
        exact quotient.

        The size is a scale s at which the formula cancels about 2 log2 s
        bits.  For the formulas in log Barnes G it is alpha + beta + 2 of
        the Jacobi exponents involved: log G(alpha + 2) grows like
        alpha^2 log alpha while the quantities built from it grow like
        n^2 log alpha, and the lgamma differences scaled by n + p + q in the
        exact energies cancel alike, so large exponents lose about
        2 mag(alpha) bits.  For the energy of an interval of capacity near
        1 it is sqrt(N): its N^2 terms cancel down to about N log N."""
        m = num.bit_length() - den.bit_length()  # the mag is m or m + 1
        m += num << max(0, -m) >= den << max(0, m)
        return self.guard_prec + 2 * max(0, m)

    # -- elementary functions ---------------------------------------------

    def log(self, x) -> Scalar:
        return math.log(x) if self.mode == STD else mpmath.log(x)

    def fsum(self, terms) -> Scalar:
        """The exact sum of ``terms`` (any iterable), rounded once."""
        return math.fsum(terms) if self.mode == STD else mpmath.fsum(terms)


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
