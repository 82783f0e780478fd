"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one PASS/FAIL line per criterion."""
import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from fekete import asym, energy, jacobi, minimize as optim
from fekete.energy import Configuration, IntervalSpec
from fekete.jacobi import JacobiParams
from fekete.precision import precision_mode

from _tails import exact_tail
from _util import (discriminant_N_log_sum, fit_slope, guarded, log_glaisher,
                   pq_discriminant_log_sum, psi2_mp, rel_close)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_exact_golden_values():
    with criterion(1, "exact golden values"):
        legendre = JacobiParams(0, 0)
        assert rel_close(jacobi.discriminant_log(2, legendre), math.log(3), 1e-12)
        assert rel_close(jacobi.discriminant_log(3, legendre), math.log(33.75), 1e-12)
        for N in (2, 3):
            assert rel_close(energy.discriminant_N_log(N), math.log(4), 1e-12)
            assert rel_close(discriminant_N_log_sum(N), math.log(4), 1e-12)
        assert rel_close(energy.interval_energy_exact(2), -math.log(4), 1e-12)
        assert rel_close(energy.interval_energy_exact(3), -math.log(4), 1e-12)


def test_criterion_2_stieltjes_oracle():
    with criterion(2, "Stieltjes minimizer oracle"):
        for (p, q) in [(1.0, 1.0), (0.75, 1.5), (2.0, 0.6)]:
            params = JacobiParams.from_charges(p, q)
            for n in range(1, 21):
                report = optim.minimize_potential(n, p, q)
                assert report.converged, (n, p, q)
                target = jacobi.zeros(n, params).points
                deviation = max(abs(a - b) for a, b in zip(report.points, target))
                assert deviation <= 1e-8, (n, p, q, deviation)


def test_criterion_3_identity_suite():
    with criterion(3, "discriminant-energy identities"):
        for N in range(2, 201):
            assert rel_close(
                discriminant_N_log_sum(N), -energy.interval_energy_exact(N),
                1e-10, floor=1.0), N
        samples = {
            (1.0, 1.0): range(1, 201),
            (0.75, 1.5): (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200),
            (2.0, 0.6): (1, 2, 4, 9, 27, 81, 150, 200),
        }
        for (p, q), ns in samples.items():
            for n in ns:
                assert rel_close(
                    pq_discriminant_log_sum(n, p, q),
                    -energy.potential_energy_exact(n, p, q),
                    1e-10, floor=1.0), (n, p, q)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "closed forms match configuration energies at zeros"):
        for (p, q) in [(1.0, 1.0), (0.75, 1.5), (2.0, 0.6)]:
            params = JacobiParams.from_charges(p, q)
            for n in (1, 2, 3, 5, 10, 20, 50, 100):
                pts = jacobi.zeros(n, params).points
                charged = Configuration(pts, charges=(p, q))
                assert rel_close(
                    energy.potential_energy_exact(n, p, q),
                    energy.potential_energy_config(charged),
                    1e-9, floor=1.0), ("potential", n, p, q)
                assert rel_close(
                    energy.elliptic_log_energy_exact(n, p, q),
                    energy.log_energy_config(Configuration(pts)),
                    1e-9, floor=1.0), ("elliptic", n, p, q)


_SLOPE_NS = (20, 40, 80, 160, 320)


def _slope_cases():
    lam_params = JacobiParams(0.4, 1.6)
    return {
        "leading-coefficient": (
            lambda order: asym.leading_coeff_expansion(lam_params, order),
            lambda n: jacobi.leading_coeff_log(n, lam_params),
        ),
        "endpoint-value": (
            lambda order: asym.value_at_one_expansion(lam_params, order),
            lambda n: jacobi.value_at_one_log(n, lam_params),
        ),
        "discriminant": (
            lambda order: asym.discriminant_expansion(lam_params, order),
            lambda n: jacobi.discriminant_log(n, lam_params),
        ),
        "potential-energy": (
            lambda order: asym.potential_energy_expansion(0.7, 1.3, order),
            lambda n: energy.potential_energy_exact(n, 0.7, 1.3),
        ),
        "elliptic-log-energy": (
            lambda order: asym.elliptic_log_energy_expansion(0.7, 1.3, order),
            lambda n: energy.elliptic_log_energy_exact(n, 0.7, 1.3),
        ),
        "interval-energy": (
            lambda order: asym.interval_energy_expansion(order),
            lambda n: energy.interval_energy_exact(n),
        ),
    }


def test_criterion_5_truncation_order_reproduction():
    with criterion(5, "truncation-error decay slopes"):
        failures = []
        for name, (build, exact_fn) in _slope_cases().items():
            exacts = {n: exact_fn(n) for n in _SLOPE_NS}
            for order in (0, 1, 2):
                expansion = build(order)
                errs = [abs(exacts[n] - asym.evaluate_expansion(expansion, n, order))
                        for n in _SLOPE_NS]
                slope = fit_slope(_SLOPE_NS, errs)
                if abs(slope + (order + 1)) > 0.15:
                    failures.append((name, "std", order, slope))
        with precision_mode("ext"):
            for name, (build, exact_fn) in _slope_cases().items():
                exacts = {n: exact_fn(n) for n in _SLOPE_NS}
                for order in (3, 4):
                    expansion = build(order)
                    errs = [abs(exacts[n] - asym.evaluate_expansion(expansion, n, order))
                            for n in _SLOPE_NS]
                    slope = fit_slope(_SLOPE_NS, errs)
                    if abs(slope + (order + 1)) > 0.15:
                        failures.append((name, "ext", order, slope))
        assert not failures, failures


def test_criterion_6_constant_term_certification():
    with criterion(6, "extrapolated expansion constants"):
        log_a_paper = math.log(1.28242712)

        def interval_remainder(N):
            return float(
                energy.interval_energy_exact(N)
                - (math.log(2) * N * N - N * math.log(N) - 2 * math.log(2) * N
                   - 0.25 * math.log(N))
            )

        r1, r2, r4 = (interval_remainder(N) for N in (100, 200, 400))
        extrapolated = (4 * (2 * r4 - r2) - (2 * r2 - r1)) / 3
        expected = 13 * math.log(2) / 12 - 3 * log_a_paper
        assert abs(extrapolated - expected) <= 1e-6

        def potential_remainder(n):
            lead = asym.potential_energy_expansion(1, 1, 0).leading
            return float(
                energy.potential_energy_exact(n, 1, 1)
                - (float(lead["n2"]) * n * n + float(lead["nlogn"]) * n * math.log(n)
                   + float(lead["n"]) * n + float(lead["logn"]) * math.log(n))
            )

        r1, r2, r4 = (potential_remainder(n) for n in (100, 200, 400))
        extrapolated = (4 * (2 * r4 - r2) - (2 * r2 - r1)) / 3
        expected = (37 / 12) * math.log(2) - 2 - 3 * log_a_paper
        assert abs(extrapolated - expected) <= 1e-5


def test_criterion_7_special_function_anchors():
    with criterion(7, "special-function anchors"):
        assert abs(guarded(psi2_mp, 1) - 0.5 * math.log(2 * math.pi)) <= 1e-10
        assert abs(guarded(psi2_mp, 2) - (math.log(2 * math.pi) - 1)) <= 1e-10
        log_a = log_glaisher()
        assert abs(mpmath.zeta(-1, 1, 1) - (1 / 12 - log_a)) <= 1e-10
        assert abs(math.exp(log_a) - 1.28242712) <= 1e-8


def test_criterion_8_tail_coefficient_golden_values():
    with criterion(8, "exact rational tail coefficients"):
        assert exact_tail(asym._interval_tail(2)) == [Fraction(1, 4), Fraction(23, 192)]
        assert 2 * exact_tail(asym._potential_tail(1, 1, 1))[0] == Fraction(-9, 2)  # H_1


def test_criterion_9_scaling_laws():
    with criterion(9, "interval scaling laws"):
        doubled = IntervalSpec(-2.0, 2.0)
        for N in range(2, 101):
            lhs = energy.interval_energy_on(doubled, N)
            rhs = energy.interval_energy_exact(N) - math.log(2) * (N * N - N)
            assert rel_close(lhs, rhs, 1e-10, floor=1.0), N
