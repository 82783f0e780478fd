"""Exception types shared across the package, the input validators and an ordering test."""
import math
from numbers import Integral


class FeketeError(Exception):
    """Base class for package errors."""


class DomainError(FeketeError, ValueError):
    """An argument lies outside an operation's documented domain."""


class CapacityError(FeketeError, ValueError):
    """A requested order exceeds an expansion's capacity, a value overflows
    the active scalar type, or an input is below float64's resolution."""


class NumericalError(FeketeError, RuntimeError):
    """A numerical routine failed to converge or lost too much accuracy."""


def check_size(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``: an integer (Python or numpy, not a bool) of
    at least ``minimum``.  ``name`` is the caller's argument, for the message.

    numpy integers are registered with :class:`numbers.Integral` and numpy
    bools are not, so no numpy import is needed; a plain ``int`` skips the
    ABC check, which costs several times the type test."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_finite_above(bound: float, what: str, **values) -> None:
    """Every value finite and strictly above ``bound`` (NaN and +-inf fail)."""
    for v in values.values():
        if not bound < v < math.inf:
            got = ", ".join(f"{name}={v}" for name, v in values.items())
            raise DomainError(f"{what} must be finite and > {bound}, got {got}")


def ordered_interior(x, lo: float = -1.0, hi: float = 1.0) -> bool:
    """Numpy array ``x`` strictly ascending inside (lo, hi): an ordered ``x``
    is interior exactly when its ends are, and a NaN fails a comparison."""
    return bool(x[0] > lo and x[-1] < hi and (x[1:] > x[:-1]).all())
