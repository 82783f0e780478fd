"""Exact and asymptotic minimal logarithmic energies of Fekete and elliptic
Fekete point configurations on compact intervals."""

from .exceptions import CapacityError, DomainError, FeketeError, NumericalError
from .precision import EXT, EXTENDED_DPS, STD, active, precision_mode, use
from .jacobi import JacobiParams, ZeroSet, zeros
from .energy import INFINITE_ENERGY, Configuration, IntervalSpec
from .asym import Expansion, evaluate_expansion

__all__ = [
    "CapacityError",
    "Configuration",
    "DomainError",
    "EXT",
    "EXTENDED_DPS",
    "Expansion",
    "FeketeError",
    "INFINITE_ENERGY",
    "IntervalSpec",
    "JacobiParams",
    "NumericalError",
    "STD",
    "SolveReport",
    "ZeroSet",
    "active",
    "evaluate_expansion",
    "fekete_maximize",
    "minimize_potential",
    "precision_mode",
    "use",
    "zeros",
]

__version__ = "0.1.0"

#: the float64 solver's names, resolved on first use: its module loads numpy,
#: which the exact values and expansions never need
_SOLVER_NAMES = ("SolveReport", "fekete_maximize", "minimize_potential")


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import minimize
        return getattr(minimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
