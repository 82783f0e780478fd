import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fekete import energy, jacobi, minimize, specfun
from fekete.energy import Configuration, IntervalSpec, INFINITE_ENERGY
from fekete.exceptions import DomainError
from fekete.jacobi import JacobiParams
from fekete.precision import precision_mode

from _util import (
    discriminant_N_log_sum,
    guarded,
    logsum_shifted,
    pq_discriminant_log_sum,
    rel_close,
)


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

    def test_coincident_signal_ext(self):
        with precision_mode("ext"):
            assert energy.log_energy_config(Configuration((0.3, -0.5, 0.3))) == INFINITE_ENERGY

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

    def test_coincident_signal_ext(self):
        config = Configuration((0.2, -0.5, 0.2), charges=(1.0, 1.0))
        with precision_mode("ext"):
            assert energy.potential_energy_config(config) == INFINITE_ENERGY

    def test_requires_charges(self):
        with pytest.raises(DomainError):
            energy.potential_energy_config(Configuration((0.0,)))

    @pytest.mark.parametrize("n, p, q", [(10, 1e8, 1e8), (3, 1e50, 1e50), (40, 1e12, 1e12),
                                         (200, 0.75, 4), (100, 1e-3, 1e-3), (12, 1e8, 0.5)])
    def test_field_terms_keep_their_digits(self, n, p, q):
        # at p = q >> 1 the minimizer's points crowd at 0, where p log(1 - x)
        # and q log(1 + x), each O(p x), cancel down to O(p x^2): formed
        # apart they left a relative error of 8.6e-3 in std and 8.9e14 in
        # ext at (3, 1e50, 1e50).  Against a 60-digit sum over the same
        # points the errors measured at most 2.5e-16 in std and 6.9e-34 in
        # ext at these cases
        _check_field(minimize.minimize_potential(n, p, q).configuration.points, p, q)

    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (5.0, 3.0)])
    def test_field_terms_near_the_ends(self, p, q):
        # 2^-40 from the ends log1p(-x^2) would lose the digits of 1 - x^2 to
        # the rounding of x^2 (1.7e-14 and 1.3e-14 measured); log1p(-x) +
        # log1p(x) there measured 2.7e-17 and 1.8e-17
        _check_field((-(1 - 2 ** -40), 0.3, 1 - 2 ** -40), p, q)


def _check_field(pts, p, q):
    """potential_energy_config of the points in both modes against a
    60-digit sum over the same points, to 5e-16 in std and 4e-33 in ext."""
    with mpmath.workdps(60):
        x = [mpmath.mpf(t) for t in pts]
        exact = -2 * mpmath.fsum(
            [p * mpmath.log(1 - t) + q * mpmath.log(1 + t) for t in x]
            + [mpmath.log(abs(s - t)) for j, s in enumerate(x) for t in x[j + 1:]])
    for mode, rtol in (("std", 5e-16), ("ext", 4e-33)):
        with precision_mode(mode):
            value = energy.potential_energy_config(Configuration(pts, (p, q)))
        with mpmath.workdps(60):
            assert abs(value - exact) <= rtol * abs(exact), (mode, value, exact)


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


def _potential_loop(points, p, q):
    """The potential energy by the scalar loops, summed by one fsum, with the
    field terms m log(1 - x^2) + (p - m) log1p(-x) + (q - m) log1p(x),
    m = min(p, q), as the package forms them."""
    m = min(p, q)
    terms = [_pair_log_loop(points)]
    terms += [m * (math.log1p(-x * x) if abs(x) < 0.5 else math.log1p(-x) + math.log1p(x))
              for x in points]
    terms += [(p - m) * math.log1p(-x) for x in points]
    terms += [(q - m) * math.log1p(x) for x in points]
    return -2 * math.fsum(terms)


class TestTiledKernel:
    """The std row tiles of ``_log_distance_sum`` against the scalar loops,
    at the sizes where the tiling changes shape; a budget of 64 elements
    makes many tiles, and one row per tile, cheap to reach."""

    P, Q = 0.7, 1.3

    @staticmethod
    def _points(n):
        # unsorted, so a tile's rows are not its nearest neighbours
        return tuple(np.random.default_rng(n).uniform(-0.999, 0.999, n).tolist())

    @staticmethod
    def _one_tile_limit():
        # the largest n whose n - 1 rows fit one tile of _TILE // n rows
        return max(n for n in range(2, energy._TILE) if energy._TILE // n >= n - 1)

    def _check(self, n):
        pts = self._points(n)
        assert rel_close(energy.log_energy_config(Configuration(pts)),
                         -2 * _pair_log_loop(pts), 1e-15), n
        assert rel_close(energy.potential_energy_config(Configuration(pts, (self.P, self.Q))),
                         _potential_loop(pts, self.P, self.Q), 1e-15), n

    @pytest.mark.parametrize("tile", [None, 64])
    def test_matches_scalar_loop(self, tile, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(energy, "_TILE", tile)
        limit = self._one_tile_limit()
        # two tiles past the limit, several with a short last one
        sizes = [0, 1, 2, 3, limit - 1, limit, limit + 1, 3 * limit]
        if tile is not None:
            # one row per tile; at the default budget the scalar loop is too slow
            sizes.append(tile + 7)
        for n in sizes:
            self._check(n)

    @pytest.mark.parametrize("n", [9, 20, 40, 70])
    def test_coincident_pair_at_every_seam(self, n, monkeypatch):
        monkeypatch.setattr(energy, "_TILE", 64)
        rows = max(1, min(n - 1, 64 // n))
        base = list(self._points(n))
        # pairs across each seam, from a tile's last row to its last column,
        # and the last pair of all
        pairs = [(s - 1, s) for s in range(rows, n - 1, rows)]
        pairs += [(s - 1, n - 1) for s in range(rows, n - 1, rows)]
        pairs.append((n - 2, n - 1))
        for j, k in pairs:
            pts = base.copy()
            pts[k] = pts[j]
            assert energy.log_energy_config(Configuration(pts)) == INFINITE_ENERGY, (j, k)
            assert energy.potential_energy_config(
                Configuration(pts, (self.P, self.Q))) == INFINITE_ENERGY, (j, k)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_empty_sum_is_plus_zero(self, mode):
        with precision_mode(mode):
            values = [energy.log_energy_config(Configuration(())),
                      energy.log_energy_config(Configuration((0.3,))),
                      energy.potential_energy_config(Configuration((), charges=(1, 1)))]
        for value in values:
            assert value == 0 and math.copysign(1, value) == 1


class TestPotentialEnergyExact:
    def test_single_symmetric_charge(self):
        for p in (1e-300, 0.5, 1.0, 2.5):
            assert abs(energy.potential_energy_exact(1, p, p)) < 1e-12
        # at p = 1e-300 the terms 2p log lambda_1 and 2p log P_1(+-1) are
        # about 1e-297 and cancel
        for mode in ("std", "ext"):
            with precision_mode(mode):
                assert abs(energy.potential_energy_exact(1, 1e-300, 1e-300)) < 1e-310

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

    @pytest.mark.parametrize("mode,rtol", [("std", 1e-14), ("ext", 1e-30)])
    def test_tiny_charge(self, mode, rtol):
        # 2p reaches the formulas unrounded: built from alpha = 2p - 1, it
        # rounded to -1 at guard digits and lgamma(alpha + 1) hit the pole,
        # while 2p log P_n(1) -> 0 keeps the energy finite; the reference is
        # the product formula at 400 digits
        for p in (1e-30, 1e-50, 1e-300):
            with precision_mode("ext"), mpmath.workdps(400):
                ref = -pq_discriminant_log_sum(5, p, 0.5)
            with precision_mode(mode):
                value = energy.potential_energy_exact(5, p, 0.5)
            assert abs(value - ref) <= rtol * abs(ref), (p, value, ref)


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

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_two_points_round_to_minus_log_four(self, mode):
        # the n = 0 kernels leave about 1e-41 of rounding, far below one ulp
        with precision_mode(mode):
            assert energy.interval_energy_exact(2) == guarded(lambda: -mpmath.log(4))

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
    """The closed forms against the O(n) log-sums of tests/_util.py."""

    def test_small_golden(self):
        for N in (2, 3):
            assert rel_close(energy.discriminant_N_log(N), math.log(4), 1e-14)
            assert rel_close(discriminant_N_log_sum(N), math.log(4), 1e-14)

    def test_duality_full_sweep(self):
        for N in range(2, 401):
            lhs = discriminant_N_log_sum(N)
            rhs = energy.discriminant_N_log(N)
            assert rel_close(lhs, rhs, 1e-10, floor=1.0), f"duality failed at N={N}"

    def test_pq_duality(self):
        cases = [(1, 1.0, 1.0), (2, 1.0, 1.0), (7, 0.6, 1.1), (25, 0.6, 1.1),
                 (60, 2.0, 0.3), (200, 0.7, 1.3)]
        for n, p, q in cases:
            lhs = pq_discriminant_log_sum(n, p, q)
            rhs = energy.pq_discriminant_log(n, p, q)
            assert rel_close(lhs, rhs, 1e-10, floor=1.0), f"pq duality failed at {(n, p, q)}"

    @pytest.mark.parametrize("mode,rtol", [("std", 1e-14), ("ext", 1e-31)])
    def test_pq_duality_large_charges(self, mode, rtol):
        # 2(n+p+q-1) log lambda_n and the lgamma differences cancel to O(n p):
        # rounded before they cancel, p = 1e16 gave the wrong sign
        with precision_mode(mode):
            for p in (1, 1e4, 1e8, 1e12, 1e16):
                lhs = pq_discriminant_log_sum(20, p, 1)
                rhs = -energy.potential_energy_exact(20, p, 1)
                assert abs(lhs - rhs) <= rtol * abs(lhs), p

    @pytest.mark.parametrize("mode,rtol,ns", [("std", 1e-14, (10**4, 10**5)),
                                              ("ext", 1e-30, (10**4,))], ids=["std", "ext"])
    def test_duality_at_large_n(self, mode, rtol, ns):
        with precision_mode(mode):
            for n in ns:
                for p, q in ((1, 1.5), (0.3, 4), (1e8, 1)):
                    lhs = pq_discriminant_log_sum(n, p, q)
                    rhs = energy.pq_discriminant_log(n, p, q)
                    assert abs(lhs - rhs) <= rtol * abs(lhs), (n, p, q)
                lhs = discriminant_N_log_sum(n)
                rhs = energy.discriminant_N_log(n)
                assert abs(lhs - rhs) <= rtol * abs(lhs), n

    def test_pq_trivial(self):
        for p in (0.5, 1.0, 1.7):
            assert abs(energy.pq_discriminant_log(1, p, p)) < 1e-12
            assert abs(pq_discriminant_log_sum(1, p, p)) < 1e-12


class TestEndpointAugmentation:
    @pytest.mark.parametrize("n", [3, 10, 37, 100])
    def test_identity(self, n):
        params = JacobiParams(1, 1)
        pts = jacobi.zeros(n, params).points
        direct = energy.log_energy_config(Configuration((-1.0,) + pts + (1.0,)))
        closed = (
            2 * (n + 1) * jacobi.leading_coeff_log(n, params)
            - jacobi.discriminant_log(n, params)
            - 2 * jacobi.value_at_one_log(n, JacobiParams(params.beta, params.alpha))  # at -1
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
    """The summation helper of the duality references."""

    def test_trivial(self):
        assert logsum_shifted(0, 1, 0) == 0.0
        assert rel_close(logsum_shifted(0, 3, 0), 2 * math.log(2) + 3 * math.log(3), 1e-14)

    @staticmethod
    def _via_zeta(m, n, offset):
        # sum_{k=m+1..n} (k+c) log(k+c) = zeta'(-1, n+c+1) - zeta'(-1, m+c+1)
        with mpmath.workdps(40):
            c = mpmath.mpf(offset)
            return mpmath.zeta(-1, n + c + 1, 1) - mpmath.zeta(-1, m + c + 1, 1)

    def test_zeta_cross_check(self):
        assert rel_close(logsum_shifted(0, 100, 0.5), self._via_zeta(0, 100, 0.5), 1e-14)

    def test_more_cross_checks(self):
        for (m, n, offset) in [(0, 40, 0.0), (3, 25, 0.25), (5, 60, -2.5)]:
            assert rel_close(logsum_shifted(m, n, offset), self._via_zeta(m, n, offset), 1e-14)


class TestRescale:
    """interval_energy_on: the [-1, 1] value moved by N(N-1) log eta."""

    def test_identity(self):
        assert energy.interval_energy_on(IntervalSpec(-1.0, 1.0), 12) == \
            energy.interval_energy_exact(12)

    def test_doubling_interval(self):
        for N in (2, 7, 30, 100):
            base = energy.interval_energy_exact(N)
            scaled = energy.interval_energy_on(IntervalSpec(-2.0, 2.0), N)
            assert rel_close(scaled, base - math.log(2) * (N * N - N), 1e-12)

    def test_interval_spec_path(self):
        spec = IntervalSpec(0.0, 1.0)
        for N in (5, 80):
            assert rel_close(
                energy.interval_energy_on(spec, N),
                energy.interval_energy_exact(N) + math.log(2) * (N * N - N),
                1e-12,
            )

    def test_rational_ends(self):
        # the ends are exact rationals: on [1/3, 7/3] eta = (b - a)/2 is 1,
        # and on [0, 10/3] the value moves by N(N-1) log(5/3)
        N = 30
        spec = IntervalSpec(Fraction(1, 3), Fraction(7, 3))
        assert energy.interval_energy_on(spec, N) == energy.interval_energy_exact(N)
        with precision_mode("ext"):
            value = energy.interval_energy_on(IntervalSpec(0, Fraction(10, 3)), N)
            expected = energy.interval_energy_exact(N) - N * (N - 1) * mpmath.log(
                mpmath.mpf(5) / 3)
            assert rel_close(value, expected, 1e-31)

    @pytest.mark.parametrize("mode,rtol", [("std", 2.2e-16), ("ext", 1e-31)])
    @pytest.mark.parametrize("N", [10**2, 10**4, 10**6, 10**9, 10**12, 10**15])
    def test_capacity_one_against_zeta_route(self, mode, rtol, N):
        # on [0, 4] the N^2 terms cancel, leaving about -N log N.  Reference:
        # the hyperfactorial form of the N-th discriminant through Hurwitz
        # zeta'(-1, x) at 80 digits, minus N(N-1) log 2 for eta = 2
        with mpmath.workdps(80):
            z = lambda x: mpmath.zeta(-1, mpmath.mpf(x), 1)
            log_disc = (N * (N - 1) * mpmath.log(2) + N * mpmath.log(N)
                        + 3 * (z(N) - z(1)) - (z(2 * N - 1) - z(N - 1)))
            ref = -log_disc - N * (N - 1) * mpmath.log(2)
        with precision_mode(mode):
            value = energy.interval_energy_on(IntervalSpec(0, 4), N)
        with mpmath.workdps(80):
            assert abs(value - ref) <= rtol * abs(ref)

    def test_domain(self):
        with pytest.raises(DomainError):
            IntervalSpec(1.0, -1.0)
        with pytest.raises(DomainError):
            IntervalSpec(-1e308, 1e308)  # finite ends, infinite scale
        with pytest.raises(DomainError):
            energy.interval_energy_on(IntervalSpec(0.0, 3.0), 1)


class TestBarnesGFree:
    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_exact_values_do_not_call_barnesg(self, mode, monkeypatch):
        def barnesg(*_):
            raise AssertionError("mpmath.barnesg called")

        monkeypatch.setattr(mpmath, "barnesg", barnesg)
        specfun.memo.cache_clear()
        with precision_mode(mode):
            for n in (2, 40, 2560, 10**9):
                energy.potential_energy_exact(n, 0.75, 2.5)
                energy.elliptic_log_energy_exact(n, 0.75, 2.5)
                energy.interval_energy_exact(n)
                jacobi.discriminant_log(n, JacobiParams(0.5, 4.0))

    def test_one_kernel_call_per_argument(self, monkeypatch):
        # the n-dependent arguments n+1, n+2p, n+2q, n+2p+2q-1 and
        # 2n+2p+2q-1 take one fused log Gamma / log G call each (four when
        # p = q), 2p and 2q go through the memo, and mpmath.loggamma is not
        # called at all
        def loggamma(*_):
            raise AssertionError("mpmath.loggamma called")

        kernel, calls = jacobi.log_gamma_g_fixed, []
        monkeypatch.setattr(jacobi, "log_gamma_g_fixed",
                            lambda x, prec: calls.append(x) or kernel(x, prec))
        monkeypatch.setattr(mpmath, "loggamma", loggamma)
        for mode in ("std", "ext"):
            with precision_mode(mode):
                for n, p, q, count in ((2, 0.3, 1.7, 5), (40, 0.75, 2.5, 5),
                                       (10**6, 1e-300, 3.0, 5), (40, 1.25, 1.25, 4)):
                    calls.clear()
                    energy.potential_energy_exact(n, p, q)
                    args = [mpmath.mpf(x) for x in calls]  # mpf tuples
                    assert len([x for x in args if x not in (2 * p, 2 * q)]) == count, args


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
