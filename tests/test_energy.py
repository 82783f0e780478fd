import math

import mpmath
import numpy as np
import pytest

from fekete import energy, jacobi
from fekete.energy import Configuration, IntervalSpec, INFINITE_ENERGY
from fekete.exceptions import DomainError
from fekete.jacobi import JacobiParams
from fekete.precision import precision_mode

from _util import rel_close


class TestLogEnergyConfig:
    def test_two_endpoints(self):
        assert rel_close(energy.log_energy_config(Configuration((-1, 1))), -math.log(4), 1e-14)

    def test_three_points(self):
        # distances 1, 1, 2
        value = energy.log_energy_config(Configuration((-1, 0, 1)))
        assert rel_close(value, -math.log(4), 1e-14)

    def test_unit_distance_pair(self):
        assert energy.log_energy_config(Configuration((-0.25, 0.75))) == pytest.approx(0.0, abs=1e-14)

    def test_coincident_signal(self):
        assert energy.log_energy_config(Configuration((0.3, 0.3))) == INFINITE_ENERGY

    def test_points_outside_interval_rejected(self):
        with pytest.raises(DomainError):
            Configuration((0.0, 1.5))


class TestPotentialEnergyConfig:
    def test_symmetric_single_charge(self):
        config = Configuration((0.0,), charges=(1.0, 1.0))
        assert energy.potential_energy_config(config) == pytest.approx(0.0, abs=1e-15)

    def test_stationary_point_value(self):
        # single charge at x = (q-p)/(p+q) for p=2, q=1
        config = Configuration((-1 / 3,), charges=(2.0, 1.0))
        expected = -2 * (2 * math.log(4 / 3) + math.log(2 / 3))
        assert rel_close(energy.potential_energy_config(config), expected, 1e-14)

    def test_boundary_signal(self):
        config = Configuration((-1.0, 0.2), charges=(1.0, 1.0))
        assert energy.potential_energy_config(config) == INFINITE_ENERGY

    def test_coincident_signal(self):
        config = Configuration((0.2, 0.2), charges=(1.0, 1.0))
        assert energy.potential_energy_config(config) == INFINITE_ENERGY

    def test_requires_charges(self):
        with pytest.raises(DomainError):
            energy.potential_energy_config(Configuration((0.0,)))


def _pair_log_loop(points):
    """sum_{j<k} log|x_j - x_k| by the scalar double loop, summed by fsum."""
    terms = []
    for j, xj in enumerate(points):
        for xk in points[j + 1:]:
            terms.append(math.log(abs(xj - xk)))
    return math.fsum(terms)


class TestConfigEnergyKernels:
    N, P, Q = 200, 0.7, 1.3

    def _points(self):
        return jacobi.zeros(self.N, JacobiParams.from_charges(self.P, self.Q)).points

    def test_log_energy_matches_scalar_loop(self):
        pts = self._points()
        assert rel_close(energy.log_energy_config(Configuration(pts)),
                         -2 * _pair_log_loop(pts), 1e-14)

    def test_potential_energy_matches_scalar_loop(self):
        pts = self._points()
        terms = [_pair_log_loop(pts)]
        for x in pts:
            terms.append(self.P * math.log(1 - x))
            terms.append(self.Q * math.log(1 + x))
        value = energy.potential_energy_config(Configuration(pts, charges=(self.P, self.Q)))
        assert rel_close(value, -2 * math.fsum(terms), 1e-14)

    def test_ext_matches_std(self):
        pts = jacobi.zeros(60, JacobiParams.from_charges(self.P, self.Q)).points
        for fn, config in ((energy.log_energy_config, Configuration(pts)),
                           (energy.potential_energy_config,
                            Configuration(pts, charges=(self.P, self.Q)))):
            std = fn(config)
            with precision_mode("ext"):
                ext = fn(config)
            assert isinstance(std, float) and isinstance(ext, mpmath.mpf)
            assert rel_close(std, ext, 1e-13)

    def test_coincident_anywhere_is_infinite(self):
        pts = (-0.5, 0.1, 0.3, 0.7, 0.3)
        assert energy.log_energy_config(Configuration(pts)) == INFINITE_ENERGY
        assert energy.potential_energy_config(
            Configuration(pts, charges=(1.0, 1.0))) == INFINITE_ENERGY


class TestPotentialEnergyExact:
    def test_single_symmetric_charge(self):
        for p in (0.5, 1.0, 2.5):
            assert abs(energy.potential_energy_exact(1, p, p)) < 1e-12

    def test_stieltjes_two_points(self):
        pts = jacobi.zeros(2, JacobiParams(1, 1)).points
        config = Configuration(pts, charges=(1.0, 1.0))
        assert abs(
            energy.potential_energy_exact(2, 1, 1) - energy.potential_energy_config(config)
        ) <= 1e-12

    def test_stieltjes_at_scale(self):
        pts = jacobi.zeros(50, JacobiParams(0.4, 1.6)).points
        config = Configuration(pts, charges=(0.7, 1.3))
        assert rel_close(
            energy.potential_energy_exact(50, 0.7, 1.3),
            energy.potential_energy_config(config),
            1e-9,
        )


class TestEllipticLogEnergyExact:
    def test_two_points_unit_charges(self):
        # zeros +-1/sqrt(5), distance 2/sqrt(5): E0 = log(5/4)
        assert rel_close(energy.elliptic_log_energy_exact(2, 1, 1), math.log(5 / 4), 1e-12)

    def test_two_points_half_charges(self):
        # alpha = beta = 0: zeros +-1/sqrt(3), distance 2/sqrt(3),
        # E0 = -2 log(2/sqrt(3)) = log(3/4) (value frozen from the oracle)
        pts = jacobi.zeros(2, JacobiParams(0, 0)).points
        oracle = energy.log_energy_config(Configuration(pts))
        assert rel_close(energy.elliptic_log_energy_exact(2, 0.5, 0.5), math.log(0.75), 1e-12)
        assert rel_close(energy.elliptic_log_energy_exact(2, 0.5, 0.5), oracle, 1e-12)

    def test_thirty_points(self):
        pts = jacobi.zeros(30, JacobiParams(1, 1)).points
        oracle = energy.log_energy_config(Configuration(pts))
        assert rel_close(energy.elliptic_log_energy_exact(30, 1, 1), oracle, 1e-10)


class TestIntervalEnergyExact:
    def test_two_and_three(self):
        assert rel_close(energy.interval_energy_exact(2), -math.log(4), 1e-14)
        assert rel_close(energy.interval_energy_exact(3), -math.log(4), 1e-12)

    def test_three_is_symmetric_optimum(self):
        # brute-force oracle: E0({-1, t, 1}) is minimized at t = 0
        base = energy.log_energy_config(Configuration((-1, 0, 1)))
        for t in np.linspace(-0.95, 0.95, 77):
            if t == 0:
                continue
            value = energy.log_energy_config(Configuration((-1, float(t), 1)))
            assert value >= base - 1e-12

    def test_four_points_legendre_extrema(self):
        s = 1 / math.sqrt(5)
        oracle = energy.log_energy_config(Configuration((-1, -s, s, 1)))
        assert abs(energy.interval_energy_exact(4) - oracle) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            energy.interval_energy_exact(1)


class TestDiscriminantDuality:
    def test_small_golden(self):
        assert rel_close(energy.discriminant_N_log(2), math.log(4), 1e-14)
        assert rel_close(energy.discriminant_N_log(3), math.log(4), 1e-12)

    def test_duality_full_sweep(self):
        for N in range(2, 401):
            lhs = energy.discriminant_N_log(N)
            rhs = -energy.interval_energy_exact(N)
            assert rel_close(lhs, rhs, 1e-10, floor=1.0), f"duality failed at N={N}"

    def test_pq_duality(self):
        cases = [(1, 1.0, 1.0), (2, 1.0, 1.0), (7, 0.6, 1.1), (25, 0.6, 1.1),
                 (60, 2.0, 0.3), (200, 0.7, 1.3)]
        for n, p, q in cases:
            lhs = energy.pq_discriminant_log(n, p, q)
            rhs = -energy.potential_energy_exact(n, p, q)
            assert rel_close(lhs, rhs, 1e-10, floor=1.0), f"pq duality failed at {(n, p, q)}"

    def test_pq_trivial(self):
        for p in (0.5, 1.0, 1.7):
            assert abs(energy.pq_discriminant_log(1, p, p)) < 1e-12


class TestEndpointAugmentation:
    @pytest.mark.parametrize("n", [3, 10, 37, 100])
    def test_identity(self, n):
        params = JacobiParams(1, 1)
        pts = jacobi.zeros(n, params).points
        direct = energy.log_energy_config(Configuration((-1.0,) + pts + (1.0,)))
        closed = (
            2 * (n + 1) * jacobi.leading_coeff_log(n, params)
            - jacobi.discriminant_log(n, params)
            - 2 * jacobi.value_at_minus_one_signed_log(n, params)
            - 2 * jacobi.value_at_one_log(n, params)
            - 2 * math.log(2)
        )
        assert rel_close(direct, closed, 1e-10)


class TestOptimalityCertificate:
    @pytest.mark.parametrize("n,p,q", [(5, 1.0, 1.0), (12, 0.7, 1.3), (30, 2.0, 0.6)])
    def test_zeros_beat_perturbations(self, n, p, q):
        params = JacobiParams.from_charges(p, q)
        pts = np.array(jacobi.zeros(n, params).points)
        best = energy.potential_energy_config(Configuration(tuple(pts), charges=(p, q)))
        rng = np.random.default_rng(20260810 + n)
        for _ in range(100):
            shaken = pts + rng.uniform(-1e-3, 1e-3, size=n)
            shaken = np.clip(shaken, -1 + 1e-9, 1 - 1e-9)
            value = energy.potential_energy_config(Configuration(tuple(shaken), charges=(p, q)))
            assert value >= best - 1e-12


class TestMonotoneGrowth:
    def test_decreasing_tail(self):
        previous = None
        for N in range(10, 161, 5):
            g = energy.interval_energy_exact(N) - (math.log(2) * N * N - N * math.log(N))
            if previous is not None:
                assert g < previous
            previous = g


class TestLogsumShifted:
    def test_trivial(self):
        assert energy.logsum_shifted(0, 1, 0) == 0.0
        assert rel_close(energy.logsum_shifted(0, 3, 0), 2 * math.log(2) + 3 * math.log(3), 1e-14)

    def test_zeta_cross_check(self):
        direct = energy.logsum_shifted(0, 100, 0.5)
        via_zeta = energy.logsum_shifted_via_zeta(0, 100, 0.5)
        assert rel_close(direct, via_zeta, 1e-9)

    def test_more_cross_checks(self):
        for (m, n, offset) in [(0, 40, 0.0), (3, 25, 0.25), (5, 60, -2.5)]:
            assert rel_close(
                energy.logsum_shifted(m, n, offset),
                energy.logsum_shifted_via_zeta(m, n, offset),
                1e-9,
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            energy.logsum_shifted(2, 10, -3.0)
        with pytest.raises(DomainError):
            energy.logsum_shifted(3, 3, 0.0)


class TestRescale:
    def test_identity(self):
        base = energy.interval_energy_exact(12)
        assert energy.rescale_energy("interval", base, 1.0, 12) == base

    def test_doubling_interval(self):
        for N in (2, 7, 30, 100):
            base = energy.interval_energy_exact(N)
            scaled = energy.rescale_energy("interval", base, 2.0, N)
            assert rel_close(scaled, base - math.log(2) * (N * N - N), 1e-12)

    def test_interval_spec_path(self):
        spec = IntervalSpec(-2.0, 2.0)
        assert spec.capacity == 1.0
        assert spec.energy_constant == 0.0
        for N in (5, 80):
            assert rel_close(
                energy.interval_energy_on(spec, N),
                energy.interval_energy_exact(N) - math.log(2) * (N * N - N),
                1e-12,
            )

    def test_potential_shift_example(self):
        base = energy.potential_energy_exact(1, 1, 1)
        scaled = energy.rescale_energy("potential", base, 2.0, 1, p=1, q=1)
        assert rel_close(scaled - base, -4 * math.log(2), 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            energy.rescale_energy("interval", 0.0, -1.0, 5)
        with pytest.raises(DomainError):
            energy.rescale_energy("potential", 0.0, 2.0, 5)  # missing charges
        with pytest.raises(DomainError):
            energy.rescale_energy("generic", 0.0, 2.0, 5)


class TestExtendedMode:
    def test_interval_matches_std(self):
        std_value = energy.interval_energy_exact(90)
        with precision_mode("ext"):
            ext_value = energy.interval_energy_exact(90)
        assert rel_close(std_value, float(ext_value), 1e-13)

    def test_potential_matches_std(self):
        std_value = energy.potential_energy_exact(90, 0.7, 1.3)
        with precision_mode("ext"):
            ext_value = energy.potential_energy_exact(90, 0.7, 1.3)
        assert rel_close(std_value, float(ext_value), 1e-12)
