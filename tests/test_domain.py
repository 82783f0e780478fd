"""Bad sizes and non-finite reals raise DomainError, never a NaN result."""
import math

import numpy as np
import pytest

from fekete import asym, energy, jacobi, minimize, precision
from fekete.energy import Configuration
from fekete.exceptions import CapacityError, DomainError
from fekete.jacobi import JacobiParams

inf, nan = math.inf, math.nan


CASES = {
    "bool_N": lambda: energy.interval_energy_exact(True),
    "inf_charge": lambda: energy.potential_energy_exact(10, inf, 1),
    "nan_charge": lambda: energy.pq_discriminant_log(10, 1, nan),
    "inf_exponent": lambda: JacobiParams(inf, 0),
    "nan_exponent": lambda: JacobiParams(0, nan),
    "nan_point": lambda: Configuration((0.1, nan)),
    "inf_config_charge": lambda: Configuration((0.1,), charges=(1, inf)),
    # sizes that pass the minimum, so only the type check rejects them
    "bool_degree": lambda: jacobi.leading_coeff_log(True, JacobiParams(0, 0)),
    "numpy_bool_degree": lambda: jacobi.leading_coeff_log(np.bool_(True), JacobiParams(0, 0)),
    "numpy_float_N": lambda: energy.interval_energy_exact(np.float64(3.0)),
    "negative_degree": lambda: jacobi.leading_coeff_log(-1, JacobiParams(0, 0)),
    "float_degree": lambda: jacobi.zeros(3.0, JacobiParams(0, 0)),
    "expansion_at_n=1": lambda: asym.evaluate_expansion(asym.interval_energy_expansion(2), 1),
    "float_order": lambda: asym.evaluate_expansion(asym.interval_energy_expansion(3), 10, 2.5),
    "bool_order": lambda: asym.evaluate_expansion(asym.interval_energy_expansion(3), 10, True),
    "-inf_expansion_charge": lambda: asym.potential_energy_expansion(1, -inf, 2),
    "infinite_interval": lambda: asym.general_interval_energy_expansion(0, inf, 2),
    "inf_minimizer_charge": lambda: minimize.minimize_potential(5, inf, 1),
    "negative_max_iter": lambda: minimize.minimize_potential(5, 1, 1, max_iter=-1),
    "float_max_iter": lambda: minimize.minimize_potential(5, 1, 1, max_iter=2.5),
    "nan_max_iter": lambda: minimize.minimize_potential(5, 1, 1, max_iter=nan),
    "bool_max_iter": lambda: minimize.minimize_potential(5, 1, 1, max_iter=True),
    "maximizer_N=1": lambda: minimize.fekete_maximize(1),
    # charges that would reach log Gamma and psi^(-2) in the expansion constants
    "nan_log_gamma": lambda: asym.elliptic_log_energy_expansion(nan, 1, 2),
    "nan_negapolygamma2": lambda: asym.potential_energy_expansion(nan, 1, 2),
    "inf_negapolygamma2": lambda: asym.potential_energy_expansion(inf, 1, 2),
    "inf_log_gamma": lambda: asym.elliptic_log_energy_expansion(1, inf, 2),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_rejected(call):
    with pytest.raises(DomainError):
        call()


#: values that overflow float64 in std
OVERFLOWS = {
    # expansion constants whose psi^(-2)(2p) and 2p log Gamma(2p) overflow
    "negapolygamma2": lambda: asym.potential_energy_expansion(1e200, 1, 0),
    "log_gamma": lambda: asym.elliptic_log_energy_expansion(1e200, 1, 0),
    # (log 2) n^2 alone overflows: the rounded kernel value reports it
    "discriminant_log": lambda: jacobi.discriminant_log(10**160, JacobiParams(0.5, 2)),
    "potential_energy_exact": lambda: energy.potential_energy_exact(10**160, 1, 1.5),
    "elliptic_log_energy_exact": lambda: energy.elliptic_log_energy_exact(10**160, 1, 1.5),
    "interval_energy_exact": lambda: energy.interval_energy_exact(10**160),
}


@pytest.mark.parametrize("call", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_overflow_is_a_capacity_error(call):
    with pytest.raises(CapacityError, match="std precision"):
        call()


def _evaluated(*args, **kwargs):
    raise AssertionError("evaluated")


def test_large_exponents_are_evaluated(monkeypatch):
    # near p = 1.62 n, q = 1 the potential energy crosses zero, so n alone
    # does not decide that it overflows: the value is evaluated
    monkeypatch.setattr(precision.Context, "ratio", _evaluated)
    with pytest.raises(AssertionError, match="evaluated"):
        energy.potential_energy_exact(10**160, 1e160, 1)


@pytest.mark.parametrize("p, q, named", [(1e-17, 0.5, "p=1e-17"), (0.5, 2e-17, "q=2e-17")])
def test_tiny_charge_exponent_is_a_capacity_error(p, q, named):
    # 2p - 1 rounds to -1 in float64: the error names the charge the caller
    # gave and float64, not an exponent of -1
    with pytest.raises(CapacityError, match=f"rounds to -1 in float64 at {named}$"):
        JacobiParams.from_charges(p, q)
    assert JacobiParams.from_charges(3e-17, 0.5).alpha > -1


def test_capacity_one_interval_is_finite_past_float64_n2():
    # on [0, 4], of capacity 1, the N^2 terms cancel: the energy is about
    # -N log N and finite at N = 10^160, where (log 2) N^2 alone is not
    N = 10**160
    value = energy.interval_energy_on(energy.IntervalSpec(0, 4), N)
    expansion = asym.general_interval_energy_expansion(0.0, 4.0, 2)
    assert math.isclose(value, asym.evaluate_expansion(expansion, N, 2), rel_tol=1e-15)


def test_message_names_the_argument():
    with pytest.raises(DomainError, match=r"N must be an integer, got 2\.5"):
        energy.interval_energy_exact(2.5)
    with pytest.raises(DomainError, match=r"n must be >= 1, got 0"):
        energy.potential_energy_exact(0, 1, 1)


def test_numpy_integers_accepted():
    for integer in (np.uint8, np.int32, np.int64):
        assert energy.interval_energy_exact(integer(40)) == energy.interval_energy_exact(40)
    params = JacobiParams(0.5, 1.5)
    assert jacobi.zeros(np.int32(7), params) == jacobi.zeros(7, params)
