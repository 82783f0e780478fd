import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fekete import energy, jacobi, minimize as optim
from fekete.energy import Configuration
from fekete.exceptions import DomainError, ordered_interior
from fekete.jacobi import JacobiParams
from fekete.precision import precision_mode

from _util import rel_close
from test_cli import _P_GRID, _Q_GRID


class TestGradient:
    def test_symmetric_single_charge(self):
        g = optim.gradient(Configuration((0.0,), charges=(1.0, 1.0)))
        assert abs(g[0]) < 1e-15

    def test_stationary_point(self):
        # single charge: stationary at x = (q - p)/(p + q)
        g = optim.gradient(Configuration((-1 / 3,), charges=(2.0, 1.0)))
        assert abs(g[0]) < 1e-13

    def test_finite_difference(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            pts = np.sort(rng.uniform(-0.9, 0.9, size=n))
            while np.min(np.diff(pts)) < 0.05:
                pts = np.sort(rng.uniform(-0.9, 0.9, size=n))
            p, q = float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0))
            config = Configuration(tuple(pts), charges=(p, q))
            g = optim.gradient(config)
            h = 1e-6
            for i in range(n):
                up = list(pts)
                down = list(pts)
                up[i] += h
                down[i] -= h
                fd = (energy.potential_energy_config(Configuration(tuple(up), charges=(p, q)))
                      - energy.potential_energy_config(Configuration(tuple(down), charges=(p, q)))
                      ) / (2 * h)
                assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            optim.gradient(Configuration((0.0,)))
        with pytest.raises(DomainError):
            optim.gradient(Configuration((1.0,), charges=(1.0, 1.0)))
        with pytest.raises(DomainError):
            optim.gradient(Configuration((0.2, 0.2), charges=(1.0, 1.0)))

    def test_stationarity_at_jacobi_zeros(self):
        for (n, p, q) in [(5, 1.0, 1.0), (20, 0.75, 1.5), (100, 1.0, 1.0), (60, 2.0, 0.6)]:
            pts = jacobi.zeros(n, JacobiParams.from_charges(p, q)).points
            g = optim.gradient(Configuration(pts, charges=(p, q)))
            assert np.max(np.abs(g)) <= 1e-8 * n


class TestMinimizePotential:
    def test_single_charge_symmetric(self):
        report = optim.minimize_potential(1, 1, 1)
        assert report.converged
        assert abs(report.points[0]) <= 1e-10

    def test_two_charges(self):
        report = optim.minimize_potential(2, 1, 1)
        assert report.converged
        s = 1 / math.sqrt(5)
        assert abs(report.points[0] + s) <= 1e-8
        assert abs(report.points[1] - s) <= 1e-8

    def test_against_zeros_oracle(self):
        report = optim.minimize_potential(20, 0.75, 1.5)
        target = jacobi.zeros(20, JacobiParams(0.5, 2.0)).points
        assert report.converged
        assert max(abs(a - b) for a, b in zip(report.points, target)) <= 1e-8

    def test_energy_not_below_exact_minimum(self):
        for (n, p, q) in [(3, 1.0, 1.0), (12, 0.7, 1.3), (25, 2.0, 0.6)]:
            report = optim.minimize_potential(n, p, q)
            assert report.converged
            assert report.energy >= float(energy.potential_energy_exact(n, p, q)) - 1e-9

    def test_report_invariants(self):
        report = optim.minimize_potential(9, 1.2, 0.4)
        assert report.converged
        assert report.step_norm <= 16 * np.finfo(float).eps
        assert all(-1 < x < 1 for x in report.points)
        assert all(a < b for a, b in zip(report.points, report.points[1:]))

    def test_uniqueness_from_random_starts(self):
        # Newton from scattered interior starts lands on one point set
        rng = np.random.default_rng(42)
        for (n, p, q) in [(4, 1.0, 1.0), (8, 0.7, 1.3), (12, 1.8, 0.5)]:
            reference = None
            runs = 0
            while runs < 50:
                start = np.sort(rng.uniform(-0.98, 0.98, size=n))
                if n > 1 and np.min(np.diff(start)) < 1e-3:
                    continue
                runs += 1
                # the start twice: no other candidate to pick
                solve = optim._newton(start, start, p, q, 200)
                if solve.stop != "step":
                    continue
                if reference is None:
                    reference = solve.x
                else:
                    assert np.max(np.abs(solve.x - reference)) <= 1e-7

    def test_iteration_cap_reported_not_raised(self):
        report = optim.minimize_potential(6, 1, 1, max_iter=1)
        assert not report.converged
        assert report.iterations == 1

    @pytest.mark.parametrize("n", [100, 250, 500])
    @pytest.mark.parametrize("p,q", [(0.75, 1.25), (4.0, 0.75), (1.0, 1.0)])
    def test_converges_past_gradient_noise_floor(self, n, p, q):
        # ||grad||_inf at the exact zeros exceeds 1e-10 here: the gradient
        # terms grow like n^2, while the Newton step stays at rounding level
        report = optim.minimize_potential(n, p, q)
        target = jacobi.zeros(n, JacobiParams.from_charges(p, q)).points
        assert report.converged
        assert report.stop == "step"
        assert report.iterations <= 20
        assert max(abs(a - b) for a, b in zip(report.points, target)) <= 1e-8

    def test_stop_reasons(self):
        report = optim.minimize_potential(20, 0.75, 1.5)
        assert (report.stop, report.converged) == ("step", True)
        assert report.step_norm <= 16 * np.finfo(float).eps
        assert optim.minimize_potential(300, 1.0, 1.0).stop == "step"
        # the uncapped solve takes 2 Newton steps
        capped = optim.minimize_potential(300, 1.0, 1.0, max_iter=1)
        assert capped.stop == "max_iter"
        assert not capped.converged
        assert capped.iterations == 1
        assert capped.step_norm > 16 * np.finfo(float).eps
        # charges this small vanish next to the pair terms: H is singular, and
        # rounding decides where LU meets a zero pivot; from the corrected
        # start that is after one step (after 0 from the squeezed grid);
        # unequal, as p = q takes the half-size route first
        singular = optim.minimize_potential(5, 1e-300, 2e-300)
        assert (singular.stop, singular.converged, singular.iterations) == ("singular", False, 1)
        assert math.isnan(singular.step_norm)

    @pytest.mark.parametrize("p,q", [(0.85, 1.15), (1e3, 1.1e3), (1.0, 1.0), (1e3, 1e3)])
    def test_holds_at_most_two_matrices(self, p, q):
        # tracemalloc sees numpy's arrays: at most two n x n at once, whichever
        # start is picked ((0.85, 1.15) and (1, 1) the corrected grid,
        # (1e3, 1.1e3) and (1e3, 1e3) the squeezed one); the start's matrix
        # held in the caller's frame would be a third; at p = q two
        # (n/2) x (n/2), at an n where the ~150 KB that numpy holds besides
        # (measured at n = 100 to 1200) stays below half of one
        n = 600 if p == q else 300
        tracemalloc.start()
        try:
            optim.minimize_potential(n, p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = n // 2 if p == q else n
        assert peak < 2.5 * 8 * size * size

    def test_report_fields_are_builtin(self):
        reports = [optim.minimize_potential(150, 0.75, 1.25),
                   optim.minimize_potential(150, 0.75, 1.25, max_iter=1),
                   optim.fekete_maximize(2)]
        assert [r.converged for r in reports] == [True, False, True]
        for report in reports:
            assert type(report.converged) is bool
            for field in dataclasses.fields(report):
                value = getattr(report, field.name)
                json.dumps(report.points if field.name == "configuration" else value)

    def test_ext_mode_solves_in_float64(self):
        std = optim.minimize_potential(100, 1.0, 1.5)
        with precision_mode("ext"):
            ext = optim.minimize_potential(100, 1.0, 1.5)
        assert ext.points == std.points
        assert (ext.stop, ext.iterations) == (std.stop, std.iterations)
        assert type(ext.energy) is float

    @pytest.mark.parametrize("mode", ["std", "ext"])
    @pytest.mark.parametrize("n,p,q", [(2, 1.0, 1.0), (9, 1.2, 0.4), (64, 0.85, 1.15),
                                       (107, 4.0, 0.75)])
    def test_energy_matches_validated_route(self, mode, n, p, q):
        # the solver's own float64 energy kernel against energy.potential_energy_config
        report = optim.minimize_potential(n, p, q)
        with precision_mode(mode):
            reference = energy.potential_energy_config(report.configuration)
        assert rel_close(report.energy, reference, 1e-14)

    @pytest.mark.parametrize("n,p,q", [(n, p, q) for n in (50, 200, 400)
                                       for p, q in [(1.0, 1.0), (0.75, 2.5), (3.0, 0.85)]]
                             + [(1000, 0.85, 1.15)])
    def test_weighted_hessian_spectrum(self, n, p, q):
        # at the minimizer diag(1 - x^2) H has the eigenvalues k (2n + alpha + beta + 1 - k),
        # k = 1..n; eigvalsh takes the symmetric similar matrix W^1/2 H W^1/2
        report = optim.minimize_potential(n, p, q)
        x = np.array(report.points)
        d = optim._differences(x)
        optim._derivatives(x, d, p, q)  # -H/2 overwrites the differences
        h = -2.0 * d
        w = np.sqrt(1.0 - x * x)
        found = np.linalg.eigvalsh(w[:, None] * h * w[None, :])
        k = np.arange(1, n + 1)
        expected = np.sort(k * (2 * n + 2 * p + 2 * q - 1 - k))
        assert np.max(np.abs(found - expected) / expected) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            optim.minimize_potential(0, 1, 1)
        with pytest.raises(DomainError):
            optim.minimize_potential(3, -1, 1)
        # the Newton step is the one stop rule: there is no tolerance to give
        with pytest.raises(TypeError):
            optim.minimize_potential(3, 1, 1, tol=1e-10)
        with pytest.raises(TypeError):
            optim.fekete_maximize(5, tol=1e-10)


_EPS = np.finfo(float).eps
_HALF_N = (1, 2, 3, 10, 11, 128, 129, 1000, 1001)
_HALF_P = (1e-6, 0.5, 0.75, 1.0, 4.0, 1e3, 1e8)


class TestSymmetric:
    """The half-size solve at p = q, in the gaps t = 2 x^2 of the positive
    points, against the full solve on all n points and the zeros."""

    @pytest.mark.parametrize("n", _HALF_N)
    def test_against_the_full_route_and_the_zeros(self, n):
        # measured: 2.4e-15 from the full solve, 1.6e-15 from the zeros and
        # 1.5e-15 relative to their distance from the centre
        for p in _HALF_P:
            report = optim.minimize_potential(n, p, p)
            x = np.array(report.points)
            assert report.converged and report.step_norm <= 16 * _EPS, p
            assert np.array_equal(x, -x[::-1]), p
            assert n % 2 == 0 or x[n // 2] == 0.0, p
            full = optim._newton(optim._start(n, p, p), optim._corrected(n, p, p), p, p, 200)
            assert full.stop == "step", p
            assert np.max(np.abs(x - full.x)) <= 5e-15, p
            z = np.array(jacobi.zeros(n, JacobiParams.from_charges(p, p)).points)
            assert np.max(np.abs(x - z)) <= 4e-15, p
            off = np.arange(n) != n // 2 if n % 2 else slice(None)  # the zeros' 0 is not exact
            assert np.max(np.abs(x[off] - z[off]) / np.abs(z[off]), initial=0.0) <= 4e-15, p

    @pytest.mark.parametrize("mode", ["std", "ext"])
    @pytest.mark.parametrize("n", [n for n in _HALF_N if n < 1000])
    def test_energy_is_the_configuration_energy(self, mode, n):
        for p in _HALF_P:
            self._check_energy(mode, n, p)

    def test_energy_is_the_configuration_energy_at_scale(self):
        # one 1001-point ext energy takes seconds: std covers the rest
        for p in _HALF_P:
            self._check_energy("std", 1000, p)
            self._check_energy("std", 1001, p)
        self._check_energy("ext", 1001, 1.0)

    @staticmethod
    def _check_energy(mode, n, p):
        # the 2 p log(1 - x^2) terms of the energy cancel to O(p x^2), which
        # the solve forms with log1p; in std the reference rounds 1 -+ x,
        # which its own rounding bound covers (measured: 5.3e-11 relative at
        # (10, 1e8), 0.09 of the bound); in ext it agrees to 2.0e-16
        report = optim.minimize_potential(n, p, p)
        with precision_mode(mode):
            reference = float(energy.potential_energy_config(report.configuration))
        x = np.array(report.points)
        rounding = 8 * _EPS * (n * n + np.sum(p / (1 - x) + p / (1 + x))) if mode == "std" else 0.0
        assert abs(report.energy - reference) <= 1e-15 * abs(reference) + rounding, (n, p)

    def test_step_is_relative_near_the_centre(self):
        # at (17, 1e8, 1e8) the points lie within 1e-3 of the centre: the
        # full solve's absolute step floor left them 6.9e-18 from the zeros
        report = optim.minimize_potential(17, 1e8, 1e8)
        z = np.array(jacobi.zeros(17, JacobiParams.from_charges(1e8, 1e8)).points)
        assert report.converged
        assert np.max(np.abs(np.array(report.points) - z)) <= 1e-19

    def test_falls_back_to_the_full_solve(self):
        # past charges of about 1e154 the gaps' squares leave float64 and the
        # half-size Hessian overflows; all n points converge as before
        for n in (5, 8, 128):
            report = optim.minimize_potential(n, 1e300, 1e300)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                full = optim._newton(optim._start(n, 1e300, 1e300),
                                     optim._corrected(n, 1e300, 1e300), 1e300, 1e300, 200)
            assert report.converged and report.points == tuple(full.x.tolist())
            assert (report.iterations, report.step_norm) == (full.iterations, full.size)


def _angle_grid(n, p, q):
    k = np.arange(1, n + 1)
    with np.errstate(all="ignore"):
        return -np.cos((k + q - 0.75) * np.pi / (n + p + q - 0.5))


def _chebyshev(n):
    k = np.arange(1, n + 1)
    return np.sin((2 * k - n - 1) * np.pi / (2 * n)) * (1.0 - 1.0 / n)


class TestStart:
    @pytest.mark.parametrize("n", [1, 2, 5, 128, 1000])
    def test_ordered_and_interior(self, n):
        for p, q in itertools.product(map(float, _P_GRID), map(float, _Q_GRID)):
            x = optim._start(n, p, q)
            assert ordered_interior(x), (n, p, q)
            if p <= 0.75 and q <= 0.75:  # nothing to squeeze: the plain grid
                assert np.allclose(x, _angle_grid(n, p, q), rtol=0, atol=1e-15), (n, p, q)

    @pytest.mark.parametrize("n", [1, 2, 5, 128, 1000])
    def test_fallback_where_the_grid_rounds_onto_an_end(self, n):
        # every angle is below 1e-149: every point rounds onto -1
        assert np.array_equal(optim._start(n, 1e300, 1e-300), _chebyshev(n))

    @pytest.mark.parametrize("n,p,q", [
        (2, 1e8, 1.0), (12, 1e8, 0.5), (50, 1e12, 1.0), (5, 3.0, 1e9), (5, 1e9, 2.0)])
    def test_gaps_at_the_scale_of_the_zeros(self, n, p, q):
        # the plain grid puts 1 + x_1 at ~(n/p)^2, the zeros sit at ~n/p;
        # measured ratios 0.89-1.54
        x = optim._start(n, p, q)
        z = np.array(jacobi.zeros(n, JacobiParams.from_charges(p, q)).points)
        for ratio in ((1 + x) / (1 + z), (1 - x) / (1 - z)):
            assert 0.5 <= ratio.min() and ratio.max() <= 2.0

    @pytest.mark.parametrize("n,p,q,ceiling", [
        (5, 1e6, 1e6, 5), (5, 3.2e6, 3.2e6, 5), (20, 1e5, 1e5, 6), (8, 20.0, 60.0, 4)])
    def test_grid_where_both_charges_exceed_the_points(self, n, p, q, ceiling):
        # with a line-search slack of 1e-14 (1 + |E|), below the energy's
        # rounding here, the first three ended at max_iter from this grid;
        # measured: 4 steps each on all n points to the absolute stop, 5, 5
        # and 6 on the gaps t = 2 x^2 to the relative one, from a grid 21%,
        # 21% and 51% off in t
        assert not np.array_equal(optim._start(n, p, q), _chebyshev(n))
        if p == q:
            assert not np.array_equal(optim._start(n, p, q, gaps=True),
                                      2 * np.square(_chebyshev(n)[n - n // 2:]))
        report = optim.minimize_potential(n, p, q)
        assert report.converged
        assert report.iterations <= ceiling

    def test_fallback_where_the_grid_rounds_onto_one_value(self):
        # a centre 5e-8 off pi/2 and a half-width of 2.2e-25 round every point onto one
        assert np.array_equal(optim._start(5, 1e50, 1.0000001e50), _chebyshev(5))
        assert optim.minimize_potential(5, 1e50, 1.0000001e50).converged

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 127, 128])
    def test_exactly_antisymmetric_at_equal_charges(self, n):
        # both grids are formed from their offset from pi/2, which is 0 at
        # p = q; -cos(2 atan(1)) put the middle point at -6.1e-17; n = 1 at
        # p = 1e308 is the Chebyshev fallback; the corrected grid is NaN
        # past charges of about 1e154
        for start, charges in ((optim._start, (1e-300, 0.5, 0.75, 1.0, 1e6, 1e50, 1e300, 1e308)),
                               (optim._corrected, (1e-300, 0.5, 0.75, 1.0, 10.0, 1e6, 1e50))):
            for p in charges:
                x = start(n, p, p)
                assert np.array_equal(x, -x[::-1]), (start, p)
                assert n % 2 == 0 or x[n // 2] == 0.0, (start, p)

    @pytest.mark.parametrize("p", [0.5, 1.0, 10.0, 1e6])
    def test_one_charge_at_equal_charges_is_the_centre(self, p):
        # a corrected grid formed as -cos(theta) and chosen without the slack
        # margin returned 1.6e-16 after 0 steps at p = 10, its energy -2.2e-15
        # beating 0 only by rounding
        report = optim.minimize_potential(1, p, p)
        assert (report.points, report.energy, report.converged) == ((0.0,), 0.0, True)

    def test_exact_centre_at_large_equal_charges(self):
        # the start stopped at once on x = -6.1e-17, with energy 2.2e-10
        report = optim.minimize_potential(1, 1e6, 1e6)
        assert (report.points, report.energy, report.converged) == ((0.0,), 0.0, True)

    def test_converges_at_large_equal_and_unequal_charges(self):
        # 273 solves; with the constant slack 20 of them ended at max_iter
        charges = [(c, c) for c in (10.0 ** e for e in range(13))]
        charges += [(c, 3 * c) for c, _ in charges] + [(3 * c, c) for c, _ in charges]
        failed = [(n, p, q) for n in (2, 3, 5, 8, 12, 20, 40) for p, q in charges
                  if not optim.minimize_potential(n, p, q).converged]
        assert failed == []

    def test_no_warning_at_the_largest_charges(self):
        others = (1e-300, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 5, 128):
                assert ordered_interior(optim._start(n, 1e308, 1e308))
                assert ordered_interior(optim._start(n, 1e308, 0.5))
            for big in (float(f"1e{e}") for e in range(300, 309)):
                pairs = [(big, big)] + [(big, c) for c in others] + [(c, big) for c in others]
                for n, (p, q) in itertools.product((1, 2, 5, 12, 128), pairs):
                    optim.minimize_potential(n, p, q)

    def test_overflowed_slack_accepts_no_step(self):
        # the field terms of the line-search slack sum past float64
        report = optim.minimize_potential(128, 1e308, 1e308)
        assert (report.stop, report.converged, report.iterations) == ("line_search", False, 1)

    @pytest.mark.parametrize("n", [1, 5, 128, 1000])
    def test_exact_at_three_quarter_charges(self, n):
        # alpha = beta = 1/2: the zeros are -cos(k pi / (n + 1)), the grid itself
        report = optim.minimize_potential(n, 0.75, 0.75)
        assert report.converged
        assert report.iterations == 0

    @pytest.mark.parametrize("solve,ceiling", [
        (lambda: optim.minimize_potential(128, 1.0, 1.0), 2),
        (lambda: optim.minimize_potential(1000, 0.85, 1.15), 2),
        (lambda: optim.fekete_maximize(109), 2),
        (lambda: optim.minimize_potential(12, 1e8, 0.5), 5),
        (lambda: optim.minimize_potential(1000, 1e3, 1e3), 7),
    ], ids=["128-1-1", "1000-0.85-1.15", "fekete-109", "12-1e8-0.5", "1000-1e3-1e3"])
    def test_newton_steps(self, solve, ceiling):
        # measured; from the squeezed grid alone the first three took 4; from
        # the Chebyshev points 9, 11, 9 and 124; 1000-1e3-1e3 took 16 with a
        # line-search slack of 1e-14 (1 + |E|)
        report = solve()
        assert report.converged
        assert report.iterations <= ceiling

    @pytest.mark.parametrize("n", [10, 40, 126])
    def test_newton_steps_over_the_oracle_charge_grid(self, n):
        # the benchmark's charges (3/4 ... 4)^2: 4-5 steps from the squeezed grid
        # alone, 0-4 from the corrected one where it is lower in energy
        grid = [k / 4 for k in range(3, 17)]
        for p, q in itertools.product(grid, grid):
            report = optim.minimize_potential(n, p, q)
            assert report.converged and report.iterations <= 4, (n, p, q)

    def test_fekete_maximize_takes_two_steps(self):
        # 4 from the squeezed grid alone
        for N in [*range(5, 301, 11), 500, 1002]:
            report = optim.fekete_maximize(N)
            assert report.converged and report.iterations <= 2, N

    @pytest.mark.parametrize("n,p", [(4, 1.78e7), (5, 1.78e7), (4, 10 ** 7.25), (5, 10 ** 7.25)])
    def test_converges_at_a_vanishing_charge_against_a_large_one(self, n, p):
        # 134-138 steps; 183-197 from the Chebyshev points; the plain grid,
        # at (n/p)^2 from -1, ran out of its 200
        report = optim.minimize_potential(n, p, 1e-9)
        assert report.converged
        assert report.iterations <= 150

    @pytest.mark.parametrize("n", range(1, 21))
    def test_step_stop_matches_the_zeros(self, n):
        # the gradient stop (||grad||_inf <= 1e-10) left (1, 0.5, 1) 1.6e-11 off
        # and (5, 10, 10) 5.0e-13; the step stop lands at rounding level
        for p, q in itertools.product((0.1, 0.5, 1.0, 10.0, 1e3, 1e8), repeat=2):
            report = optim.minimize_potential(n, p, q)
            target = jacobi.zeros(n, JacobiParams.from_charges(p, q)).points
            assert report.converged, (n, p, q)
            assert max(abs(a - b) for a, b in zip(report.points, target)) <= 1e-14, (n, p, q)


class TestFeketeMaximize:
    def test_two_points(self):
        report = optim.fekete_maximize(2)
        assert report.points == (-1.0, 1.0)
        assert report.converged

    def test_three_points(self):
        report = optim.fekete_maximize(3)
        assert report.points[0] == -1.0 and report.points[2] == 1.0
        assert abs(report.points[1]) <= 1e-10

    def test_four_points(self):
        report = optim.fekete_maximize(4)
        s = 1 / math.sqrt(5)
        expected = (-1.0, -s, s, 1.0)
        assert max(abs(a - b) for a, b in zip(report.points, expected)) <= 1e-8

    @pytest.mark.parametrize("N", [2, 3, 5, 12, 33, 60, 109])
    def test_energy_matches_interval_exact(self, N):
        report = optim.fekete_maximize(N)
        assert report.converged
        assert abs(report.energy - float(energy.interval_energy_exact(N))) <= 1e-8

    @pytest.mark.parametrize("mode", ["std", "ext"])
    @pytest.mark.parametrize("N", [3, 10, 109, 500])
    def test_energy_is_the_configuration_energy(self, N, mode):
        with precision_mode(mode):
            report = optim.fekete_maximize(N)
            direct = energy.log_energy_config(report.configuration)
        assert rel_close(report.energy, direct, 1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            optim.fekete_maximize(1)
