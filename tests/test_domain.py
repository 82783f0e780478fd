"""Bad sizes and non-finite reals raise DomainError, never a NaN result."""
import math

import numpy as np
import pytest

from fekete import asym, energy, jacobi, minimize, specfun
from fekete.energy import Configuration
from fekete.exceptions import DomainError
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
    "negative_degree": lambda: jacobi.leading_coeff_log(-1, JacobiParams(0, 0)),
    "float_degree": lambda: jacobi.zeros(3.0, JacobiParams(0, 0)),
    "expansion_at_n=1": lambda: asym.evaluate_expansion(asym.interval_energy_expansion(2), 1),
    "-inf_expansion_charge": lambda: asym.potential_energy_expansion(1, -inf, 2),
    "infinite_interval": lambda: asym.general_interval_energy_expansion(0, inf, 2),
    "inf_minimizer_charge": lambda: minimize.minimize_potential(5, inf, 1),
    "maximizer_N=1": lambda: minimize.fekete_maximize(1),
    "nan_log_gamma": lambda: specfun.log_gamma(nan),
    "nan_negapolygamma2": lambda: specfun.negapolygamma2(nan),
    "nan_logsum_offset": lambda: energy.logsum_shifted(0, 5, nan),
    "inf_negapolygamma2": lambda: specfun.negapolygamma2(inf),
    "inf_zeta_prime_neg1_exact": lambda: specfun.zeta_prime_neg1_exact(inf),
    "inf_logsum_via_zeta_offset": lambda: energy.logsum_shifted_via_zeta(0, 5, inf),
    "inf_log_gamma": lambda: specfun.log_gamma(inf),
    "inf_log_gamma_asym": lambda: specfun.log_gamma_asym(inf, 1, 2),
    "inf_zeta_prime_neg1_asym": lambda: specfun.zeta_prime_neg1_asym(inf, 1, 3),
    "inf_logsum_offset": lambda: energy.logsum_shifted(0, 5, inf),
    "float_logsum_m": lambda: energy.logsum_shifted(0.5, 5, 0.0),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_rejected(call):
    with pytest.raises(DomainError):
        call()


def test_message_names_the_argument():
    with pytest.raises(DomainError, match=r"N must be an integer, got 2\.5"):
        energy.interval_energy_exact(2.5)
    with pytest.raises(DomainError, match=r"n must be >= 1, got 0"):
        energy.potential_energy_exact(0, 1, 1)


def test_numpy_integers_accepted():
    assert energy.interval_energy_exact(np.int64(40)) == energy.interval_energy_exact(40)
    params = JacobiParams(0.5, 1.5)
    assert jacobi.zeros(np.int32(7), params) == jacobi.zeros(7, params)
