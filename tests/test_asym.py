import functools
import json
import math
from fractions import Fraction

import mpmath
import pytest

from fekete import asym, cli, energy, jacobi, specfun
from fekete.exceptions import CapacityError, DomainError
from fekete.jacobi import JacobiParams
from fekete.precision import precision_mode

from _series import add_term, diff_report, new_series, plus, scaled, times_n
from _tails import exact_tail, hurwitz_zeta_negint_fraction
from _util import endpoint_mp, expansion_from_json, fit_slope, log_glaisher, rel_close


def zeta_frac(m, a):
    return hurwitz_zeta_negint_fraction(m, Fraction(a))


def add_tail(s, coeffs):
    """The exact c_m of an ``asym`` tail generator as the n^-m terms of ``s``."""
    for m, c in enumerate(exact_tail(coeffs), 1):
        add_term(s, -m, 0, "1", c)


# -- symbolic building blocks (independent re-assembly of the expansions) ----


def lambda_series(alpha: Fraction, beta: Fraction, order: int):
    s = new_series()
    add_term(s, 1, 0, "log2", 1)
    add_term(s, 0, 1, "1", Fraction(-1, 2))
    add_term(s, 0, 0, "log2", alpha + beta)
    add_term(s, 0, 0, "logpi", Fraction(-1, 2))
    add_tail(s, asym._lambda_tail(order, alpha, beta))
    return s


def p1_series(alpha: Fraction, gamma_symbol: str, order: int):
    s = new_series()
    add_term(s, 0, 1, "1", alpha)
    add_term(s, 0, 0, gamma_symbol, -1)
    add_tail(s, asym._value_at_one_tail(order, alpha))
    return s


def disc_series(alpha: Fraction, beta: Fraction, order: int):
    ab = alpha + beta
    s = new_series()
    add_term(s, 2, 0, "log2", 1)
    add_term(s, 1, 0, "log2", 2 * ab)
    add_term(s, 1, 0, "logpi", -1)
    add_term(s, 0, 1, "1", (Fraction(5, 2) - (alpha + 1) ** 2 - (beta + 1) ** 2) / 2)
    add_term(s, 0, 0, "1", -Fraction(1, 8) - (ab + Fraction(1, 2)) ** 2 / 2)
    add_term(s, 0, 0, "log2", (Fraction(11, 6) + ab * ab) / 2)
    add_term(s, 0, 0, "logpi", 1)
    add_term(s, 0, 0, "logA", 3)
    add_term(s, 0, 0, "lgamma_2p", alpha + 1)
    add_term(s, 0, 0, "psi_2p", -1)
    add_term(s, 0, 0, "lgamma_2q", beta + 1)
    add_term(s, 0, 0, "psi_2q", -1)
    add_tail(s, asym._discriminant_tail(order, alpha, beta))
    return s


def potential_target(p: Fraction, q: Fraction, order: int):
    s = new_series()
    add_term(s, 2, 0, "log2", 1)
    add_term(s, 1, 1, "1", -1)
    add_term(s, 1, 0, "log2", 2 * (p + q - 1))
    add_term(s, 0, 1, "1", -2 * ((p - Fraction(1, 4)) ** 2 + (q - Fraction(1, 4)) ** 2))
    add_term(s, 0, 0, "log2", 2 * ((p + q - 1) ** 2 - Fraction(11, 24)))
    add_term(s, 0, 0, "logpi", -(p + q))
    add_term(s, 0, 0, "logA", -3)
    add_term(s, 0, 0, "psi_2p", 1)
    add_term(s, 0, 0, "psi_2q", 1)
    add_tail(s, asym._potential_tail(order, p, q))
    return s


def elliptic_target(p: Fraction, q: Fraction, order: int):
    s = new_series()
    add_term(s, 2, 0, "log2", 1)
    add_term(s, 1, 1, "1", -1)
    add_term(s, 1, 0, "log2", -2)
    add_term(s, 0, 1, "1", 2 * (p * p + q * q - Fraction(1, 8)))
    add_term(s, 0, 0, "log2", -2 * ((p + q) ** 2 - Fraction(13, 24)))
    add_term(s, 0, 0, "logA", -3)
    add_term(s, 0, 0, "lgamma_2p", -2 * p)
    add_term(s, 0, 0, "psi_2p", 1)
    add_term(s, 0, 0, "lgamma_2q", -2 * q)
    add_term(s, 0, 0, "psi_2q", 1)
    add_tail(s, asym._elliptic_tail(order, p, q))
    return s


def zeta_prime_series(scale: int, a: Fraction, order: int):
    """Series of zeta'(-1, scale*N + a) in powers of N, symbols {1, log2}."""
    s = new_series()
    sc = Fraction(scale)
    log_s = Fraction(int(math.log2(scale)))  # scale in {1, 2}: log(scale) = log_s * log2
    z0 = zeta_frac(0, a)
    z1 = zeta_frac(1, a)
    add_term(s, 2, 1, "1", sc * sc / 2)
    add_term(s, 2, 0, "log2", sc * sc / 2 * log_s)
    add_term(s, 2, 0, "1", -sc * sc / 4)
    add_term(s, 1, 1, "1", -z0 * sc)
    add_term(s, 1, 0, "log2", -z0 * sc * log_s)
    add_term(s, 0, 1, "1", -z1)
    add_term(s, 0, 0, "log2", -z1 * log_s)
    add_term(s, 0, 0, "1", -z1)
    for k in range(1, order + 1):
        coeff = zeta_frac(k + 1, a) / (k * (k + 1)) / sc ** k
        add_term(s, -k, 0, "1", coeff if k % 2 == 0 else -coeff)
    return s


class TestGoldenTailCoefficients:
    """The exact rationals of the integer numerators, before rounding."""

    def test_interval_c1_c2_exact(self):
        assert exact_tail(asym._interval_tail(2)) == [Fraction(1, 4), Fraction(23, 192)]

    def test_h1_at_unit_charges(self):
        # c_1 = H_1/2
        assert 2 * exact_tail(asym._potential_tail(1, 1, 1))[0] == Fraction(-9, 2)

    def test_lambda_c1_legendre(self):
        # (1/2) zeta(-1,1) + zeta(-1) = -1/8
        assert exact_tail(asym._lambda_tail(1, 0, 0)) == [Fraction(-1, 8)]

    def test_psi1_vanishes_for_legendre(self):
        # c_1 = Psi_1
        assert exact_tail(asym._discriminant_tail(1, 0, 0)) == [0]

    def test_psi1_assembly_from_displayed_zeta_values(self):
        # zeta(-1) = -1/12, zeta(-2) = 0, zeta(-2,1) = 0 plugged into the bracket
        expected = (
            -Fraction(3, 2) * 0 - 2 * Fraction(-1, 12)
            + (1 * Fraction(-1, 12) - 0) * 2
            - Fraction((2 - Fraction(1, 2)) * 1 + 1 - Fraction(1, 2), 2) * 0
            + 0
        )
        assert expected == 0
        assert exact_tail(asym._discriminant_tail(1, 0, 0)) == [expected]

    def test_p1_tails_match_log_shift_series(self):
        # alpha = 1: log P_n(1) = log(n+1) = log n + sum (-1)^(m-1)/m n^-m
        assert exact_tail(asym._value_at_one_tail(8, 1)) == [
            Fraction((-1) ** (m - 1), m) for m in range(1, 9)]

    def test_symmetric_field_specialization(self):
        # p = q collapses the bracket to its symmetric form, exactly
        for p in (Fraction(1, 2), Fraction(1), Fraction(7, 10), Fraction(5, 2)):
            for m, c in enumerate(exact_tail(asym._potential_tail(8, p, p)), 1):
                expected = (
                    zeta_frac(m + 1, 1)
                    + 2 * zeta_frac(m + 1, 2 * p)
                    + (1 - Fraction(1, 2 ** m)) * zeta_frac(m + 1, 4 * p - 1)
                )
                assert (-1) ** (m - 1) * m * (m + 1) * c == expected


class TestLeadingCoeffExpansion:
    def test_constant_legendre(self):
        e = asym.leading_coeff_expansion(JacobiParams(0, 0), 2)
        assert e.leading["const"] == pytest.approx(-0.5 * math.log(math.pi), rel=1e-15)
        assert e.leading["n"] == pytest.approx(math.log(2), rel=1e-15)
        assert e.leading["logn"] == -0.5

    def test_truncated_accuracy(self):
        e = asym.leading_coeff_expansion(JacobiParams(0, 0), 3)
        diff = abs(jacobi.leading_coeff_log(50, JacobiParams(0, 0))
                   - asym.evaluate_expansion(e, 50, 3))
        assert diff <= 50.0 ** -4

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_decay_slope(self, order):
        params = JacobiParams(0.4, 1.6)
        e = asym.leading_coeff_expansion(params, order)
        ns = (20, 40, 80, 160, 320)
        errs = [abs(jacobi.leading_coeff_log(n, params) - asym.evaluate_expansion(e, n, order))
                for n in ns]
        assert abs(fit_slope(ns, errs) + (order + 1)) <= 0.15


class TestValueAtOneExpansion:
    def test_alpha_zero_is_identically_zero(self):
        e = asym.value_at_one_expansion(JacobiParams(0, 1.2), 6)
        assert e.leading["logn"] == 0.0
        assert e.leading["const"] == 0.0
        assert all(c == 0.0 for c in e.tail)

    def test_alpha_one_closed_form(self):
        # log P_n^(1,1)(1) = log(n+1)
        e = asym.value_at_one_expansion(JacobiParams(1, 1), 4)
        diff = abs(asym.evaluate_expansion(e, 100, 4) - math.log(101))
        assert diff <= 1e-9


class TestDiscriminantExpansion:
    def test_constant_legendre_assembly(self):
        e = asym.discriminant_expansion(JacobiParams(0, 0), 1)
        expected = (-0.25 + (11 / 12) * math.log(2) + math.log(math.pi)
                    + 3 * log_glaisher() - math.log(2 * math.pi))
        assert e.leading["const"] == pytest.approx(expected, rel=1e-13)

    def test_constant_by_extrapolation(self):
        # Richardson on logD_n minus its leading terms over n, 2n, 4n
        params = JacobiParams(0, 0)
        e = asym.discriminant_expansion(params, 0)

        def remainder(n):
            lead = e.leading
            value = jacobi.discriminant_log(n, params)
            return float(value - (lead["n2"] * n * n + lead["n"] * n
                                  + lead["logn"] * math.log(n)))

        r1, r2, r4 = remainder(80), remainder(160), remainder(320)
        k1 = 2 * r2 - r1
        k2 = 2 * r4 - r2
        extrapolated = (4 * k2 - k1) / 3
        assert abs(extrapolated - float(e.leading["const"])) <= 1e-6

    def test_truncated_accuracy(self):
        params = JacobiParams(0, 0)
        e = asym.discriminant_expansion(params, 2)
        diff = abs(jacobi.discriminant_log(40, params) - asym.evaluate_expansion(e, 40, 2))
        assert diff <= 40.0 ** -3

    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_order_8_matches_closed_form_at_large_n(self, n):
        # 0.4 + 1 is inexact in float64: the constant needs alpha + 1 rounded
        # once from the exact exponent, or it is off by 4e-18
        params = JacobiParams(0.4, 1.6)
        with precision_mode("ext"):
            e = asym.discriminant_expansion(params, 8)
            value = jacobi.discriminant_log(n, params)
            diff = abs(value - asym.evaluate_expansion(e, n, 8))
        assert diff <= 1e-30 * abs(value)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_decay_slope(self, order):
        params = JacobiParams(0.4, 1.6)
        e = asym.discriminant_expansion(params, order)
        ns = (20, 40, 80, 160, 320)
        errs = [abs(jacobi.discriminant_log(n, params) - asym.evaluate_expansion(e, n, order))
                for n in ns]
        assert abs(fit_slope(ns, errs) + (order + 1)) <= 0.15


class TestPotentialExpansion:
    def test_constant_unit_charges(self):
        # C1(1,1) = (37/12) log 2 - 2 - 3 log A, via psi^(-2)(2) = log(2 pi) - 1
        e = asym.potential_energy_expansion(1, 1, 1)
        expected = (37 / 12) * math.log(2) - 2 - 3 * log_glaisher()
        assert e.leading["const"] == pytest.approx(expected, rel=1e-12)

    def test_constant_by_extrapolation(self):
        e = asym.potential_energy_expansion(1, 1, 0)

        def remainder(n):
            lead = e.leading
            value = energy.potential_energy_exact(n, 1, 1)
            return float(value - (lead["n2"] * n * n + lead["nlogn"] * n * math.log(n)
                                  + lead["n"] * n + lead["logn"] * math.log(n)))

        r1, r2, r4 = remainder(100), remainder(200), remainder(400)
        k1 = 2 * r2 - r1
        k2 = 2 * r4 - r2
        extrapolated = (4 * k2 - k1) / 3
        assert abs(extrapolated - float(e.leading["const"])) <= 1e-5

    def test_logn_coefficient(self):
        # -2 [(p - 1/4)^2 + (q - 1/4)^2] = -2 * (9/16 + 9/16) = -9/4 at p = q = 1
        e = asym.potential_energy_expansion(1, 1, 0)
        assert e.leading["logn"] == pytest.approx(-2.25, abs=1e-15)

    def test_truncated_accuracy(self):
        e = asym.potential_energy_expansion(0.7, 1.3, 2)
        diff = abs(energy.potential_energy_exact(60, 0.7, 1.3)
                   - asym.evaluate_expansion(e, 60, 2))
        assert diff <= 2e-5  # |c_3| ~ 1.8, so O(60^-3)
        diff2 = abs(energy.potential_energy_exact(120, 0.7, 1.3)
                    - asym.evaluate_expansion(e, 120, 2))
        assert diff2 <= diff / 6  # confirms at least cubic decay

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_decay_slope(self, order):
        e = asym.potential_energy_expansion(0.7, 1.3, order)
        ns = (20, 40, 80, 160, 320)
        errs = [abs(energy.potential_energy_exact(n, 0.7, 1.3)
                    - asym.evaluate_expansion(e, n, order)) for n in ns]
        assert abs(fit_slope(ns, errs) + (order + 1)) <= 0.15

    def test_symmetric_case_same_path(self):
        left = asym.potential_energy_expansion(0.8, 0.8, 5)
        right = asym.potential_energy_expansion(0.8, 0.8, 5)
        assert left == right


class TestEllipticExpansion:
    def test_n_coefficient_charge_independent(self):
        for (p, q) in [(1.0, 1.0), (0.7, 1.3), (2.0, 0.6)]:
            e = asym.elliptic_log_energy_expansion(p, q, 0)
            assert e.leading["n"] == pytest.approx(-2 * math.log(2), rel=1e-15)

    def test_truncated_accuracy(self):
        e = asym.elliptic_log_energy_expansion(1, 1, 2)
        diff = abs(energy.elliptic_log_energy_exact(60, 1, 1)
                   - asym.evaluate_expansion(e, 60, 2))
        assert diff <= 1e-4  # |c_3| ~ 10.4, so O(60^-3)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_decay_slope(self, order):
        e = asym.elliptic_log_energy_expansion(0.7, 1.3, order)
        ns = (20, 40, 80, 160, 320)
        errs = [abs(energy.elliptic_log_energy_exact(n, 0.7, 1.3)
                    - asym.evaluate_expansion(e, n, order)) for n in ns]
        assert abs(fit_slope(ns, errs) + (order + 1)) <= 0.15

    def test_leading_term_comparison_with_potential(self):
        # n^2 and n log n coefficients agree with the potential energy for
        # every charge pair; the n coefficients are 2 log 2 (p+q-1) versus
        # -2 log 2, which differ for all positive charges (at p+q = 2 they
        # match only in absolute value)
        for (p, q) in [(1.0, 1.0), (0.5, 1.5), (0.7, 0.8)]:
            pot = asym.potential_energy_expansion(p, q, 0)
            ell = asym.elliptic_log_energy_expansion(p, q, 0)
            assert pot.leading["n2"] == ell.leading["n2"]
            assert pot.leading["nlogn"] == ell.leading["nlogn"]
            assert pot.leading["n"] != ell.leading["n"]
        pot = asym.potential_energy_expansion(1, 1, 0)
        ell = asym.elliptic_log_energy_expansion(1, 1, 0)
        assert abs(pot.leading["n"]) == pytest.approx(abs(ell.leading["n"]), rel=1e-15)


class TestIntervalExpansion:
    def test_constant(self):
        e = asym.interval_energy_expansion(0)
        assert e.leading["const"] == pytest.approx(
            (13 / 12) * math.log(2) - 3 * log_glaisher(), rel=1e-14)

    def test_truncated_accuracy_extended(self):
        with precision_mode("ext"):
            e = asym.interval_energy_expansion(3)
            diff = abs(energy.interval_energy_exact(100) - asym.evaluate_expansion(e, 100, 3))
            # next coefficient is c_4 ~ 0.0477
            assert diff <= float(0.1 * 100.0 ** -4)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_decay_slope(self, order):
        e = asym.interval_energy_expansion(order)
        ns = (20, 40, 80, 160, 320)
        errs = [abs(energy.interval_energy_exact(n) - asym.evaluate_expansion(e, n, order))
                for n in ns]
        assert abs(fit_slope(ns, errs) + (order + 1)) <= 0.15


class TestGeneralIntervalExpansion:
    def test_reduces_on_reference_interval(self):
        base = asym.interval_energy_expansion(3)
        general = asym.general_interval_energy_expansion(-1, 1, 3)
        assert general.leading["n2"] == pytest.approx(base.leading["n2"], rel=1e-15)
        assert general.leading["n"] == pytest.approx(base.leading["n"], rel=1e-15)
        assert general.tail == base.tail

    def test_capacity_one_interval(self):
        e = asym.general_interval_energy_expansion(-2, 2, 2)
        assert e.leading["n2"] == 0.0
        assert e.leading["n"] == pytest.approx(-math.log(2), rel=1e-15)

    def test_unit_interval(self):
        e = asym.general_interval_energy_expansion(0, 1, 2)
        assert e.leading["n2"] == pytest.approx(math.log(4), rel=1e-15)
        assert e.leading["n"] == pytest.approx(-3 * math.log(2), rel=1e-15)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_rational_ends(self, mode):
        # exact rational ends, as energy.interval_energy_on takes them:
        # [1/3, 7/3] has the capacity of [-1, 1], so every coefficient is
        # the same bits; on [0, 10/3] the n^2 coefficient is W = log(6/5)
        # rounded once
        with precision_mode(mode) as ctx:
            shifted = asym.general_interval_energy_expansion(Fraction(1, 3), Fraction(7, 3), 2)
            unit = asym.general_interval_energy_expansion(-1, 1, 2)
            assert shifted.leading == unit.leading and shifted.tail == unit.tail
            w = asym.general_interval_energy_expansion(0, Fraction(10, 3), 2).leading["n2"]
        with mpmath.workdps(60):
            ref = mpmath.log(mpmath.mpf(6) / 5)
            assert abs(mpmath.mpf(w) - ref) <= _half_ulp(ref, ctx) + _slack(ref, ctx)

    def test_against_rescaled_exact(self):
        spec = energy.IntervalSpec(0.0, 1.0)
        e = asym.general_interval_energy_expansion(0, 1, 2)
        for N in (40, 80):
            exact = energy.interval_energy_on(spec, N)
            approx = asym.evaluate_expansion(e, N, 2)
            assert abs(exact - approx) <= 2.0 * N ** -3


#: charges of the leading-coefficient accuracy test
CHARGE_GRID = [0.75 + 0.25 * k for k in range(14)] + [0.3, 0.55, 7.1]


@functools.lru_cache(maxsize=None)
def _psi2_ref(x):
    """psi^(-2)(x) = x(1-x)/2 + (x/2) log 2pi + x log Gamma(x) - log G(1+x),
    by mpmath.loggamma and mpmath.barnesg, not by the fixed-point kernel
    under test."""
    return (x * (1 - x) / 2 + x / 2 * mpmath.log(2 * mpmath.pi) + x * mpmath.loggamma(x)
            - mpmath.log(mpmath.barnesg(1 + x)))


@functools.lru_cache(maxsize=None)
def _leading_refs(p, q):
    """The five leading coefficients of each charge-pair kind at 60 digits,
    from the exact charges and exponents; the Jacobi kinds only where no
    exponent 2p - 1 rounds to -1 in float64."""
    with mpmath.workdps(60):
        ln2, log_pi = mpmath.log(2), mpmath.log(mpmath.pi)
        log_a = mpmath.log(mpmath.glaisher)
        a, b = mpmath.mpf(2 * p - 1), mpmath.mpf(2 * q - 1)
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        ab, a1, b1 = a + b, a + 1, b + 1
        lg, psi2, frac = mpmath.loggamma, _psi2_ref, mpmath.mpf
        jacobi_refs = {} if min(a1, b1) == 0 else {
            "lambda": (0, 0, ln2, frac(-1) / 2, ab * ln2 - log_pi / 2),
            "p1": (0, 0, 0, a, -lg(a1)),
            "disc": (ln2, 0, 2 * ab * ln2 - log_pi, (frac(5) / 2 - a1 ** 2 - b1 ** 2) / 2,
                     -frac(1) / 8 - (ab + frac(1) / 2) ** 2 / 2
                     + (frac(11) / 6 + ab * ab) / 2 * ln2 + log_pi + 3 * log_a
                     + a1 * lg(a1) - psi2(a1) + b1 * lg(b1) - psi2(b1)),
        }
        return {
            **jacobi_refs,
            "potential": (ln2, -1, 2 * (p + q - 1) * ln2,
                          -2 * ((p - frac(1) / 4) ** 2 + (q - frac(1) / 4) ** 2),
                          2 * ((p + q - 1) ** 2 - frac(11) / 24) * ln2 - (p + q) * log_pi
                          - 3 * log_a + psi2(2 * p) + psi2(2 * q)),
            "elliptic": (ln2, -1, -2 * ln2, 2 * (p * p + q * q - frac(1) / 8),
                         -2 * ((p + q) ** 2 - frac(13) / 24) * ln2 - 3 * log_a
                         - 2 * p * lg(2 * p) + psi2(2 * p) - 2 * q * lg(2 * q) + psi2(2 * q)),
        }


def _leading_built(p, q):
    params = JacobiParams.from_charges(p, q)
    built = {
        "lambda": asym.leading_coeff_expansion(params, 0),
        "p1": asym.value_at_one_expansion(params, 0),
        "disc": asym.discriminant_expansion(params, 0),
        "potential": asym.potential_energy_expansion(p, q, 0),
        "elliptic": asym.elliptic_log_energy_expansion(p, q, 0),
    }
    return {kind: [e.leading[k] for k in asym.LEADING_KEYS] for kind, e in built.items()}


class TestLeadingCoefficientsRoundedOnce:
    """Each leading coefficient is one kernel value rounded once."""

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_against_60_digit_reference(self, mode):
        for p in CHARGE_GRID:
            for q in CHARGE_GRID:
                with precision_mode(mode):
                    built = _leading_built(p, q)
                with mpmath.workdps(60):
                    for kind, refs in _leading_refs(p, q).items():
                        for key, value, ref in zip(asym.LEADING_KEYS, built[kind], refs):
                            err = abs(mpmath.mpf(value) - ref)
                            if mode == "std":
                                bound = 0.5 * math.ulp(float(ref))
                            else:
                                bound = 1e-33 * abs(ref)
                            assert err <= bound, (kind, key, p, q, err)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_discriminant_symmetric_bit_for_bit(self, mode):
        # D_n is symmetric in alpha <-> beta, and so is every rounded coefficient
        with precision_mode(mode):
            for a, b in [(2, 0.5), (0.1, 13.2), (-0.4, 3.5)]:
                assert (asym.discriminant_expansion(JacobiParams(a, b), 2).leading
                        == asym.discriminant_expansion(JacobiParams(b, a), 2).leading)

    def test_psi2_memo_serves_the_rebuild(self, monkeypatch):
        calls = []
        kernel = specfun.log_gamma_g_fixed

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        specfun.memo.cache_clear()
        monkeypatch.setattr(specfun, "log_gamma_g_fixed", counted)
        first = asym.potential_energy_expansion(1.25, 2.5, 4)
        built = len(calls)
        assert built > 0
        assert asym.potential_energy_expansion(1.25, 2.5, 4) == first
        assert len(calls) == built


def _half_ulp(ref, ctx):
    """Half an ulp of the active precision at the 60-digit value ``ref``."""
    return mpmath.mpf(2) ** (mpmath.mag(ref) - ctx.prec - 1) if ref else mpmath.mpf(0)


def _slack(ref, ctx):
    """The error a value formed at the guard precision may add before its
    one rounding: 2^-guard_prec relative."""
    return abs(ref) * mpmath.mpf(2) ** -ctx.guard_prec


#: inputs of every kind for the rounded-once checks: charges, and interval ends
_EVERY_KIND = {
    **{kind: [(0.1, 0.3), (0.75, 4), (1.25, 2.75), (7.1, 0.55), (1e6, 0.3), (1e-300, 0.5)]
       for kind in ("lambda", "p1", "disc", "potential", "elliptic")},
    "interval": [()],
    "general-interval": [(0, 3), (-2, 5), (10, 11), (Fraction(1, 3), Fraction(7, 3))],
}


def _every_expansion(order):
    """(kind, inputs, expansion) for every kind at its inputs in
    :data:`_EVERY_KIND` (the charges for the Jacobi kinds too); charges that
    no float64 Jacobi exponent holds are left out there."""
    for kind, given in _EVERY_KIND.items():
        for inputs in given:
            args = inputs
            if cli.KINDS[kind].inputs == ("params",):
                if 2 * min(inputs) - 1 == -1:
                    continue
                args = (JacobiParams.from_charges(*inputs),)
            yield kind, inputs, cli.KINDS[kind].expansion(order, *args)


def _interval_refs(a, b):
    """The five leading coefficients of the [a, b] energy at 60 digits."""
    with mpmath.workdps(60):
        ln2, log_a = mpmath.log(2), mpmath.log(mpmath.glaisher)
        w = -mpmath.log((mpmath.mpf(b.numerator) / b.denominator
                         - mpmath.mpf(a.numerator) / a.denominator) / 4)
        return (w, -1, -(ln2 + w), mpmath.mpf(-1) / 4, 13 * ln2 / 12 - 3 * log_a)


class TestRoundedOnceAgainst60Digits:
    """Every leading coefficient of every kind, and every partial sum of
    every truncated series, is its 60-digit value rounded once: within half
    an ulp, plus 2^-guard_prec relative for a value formed at the guard
    precision."""

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_leading_coefficients(self, mode):
        with precision_mode(mode) as ctx:
            built = list(_every_expansion(0))
        for kind, inputs, e in built:
            if kind in ("interval", "general-interval"):
                a, b = map(Fraction, inputs or (-1, 1))
                refs = _interval_refs(a, b)
            else:
                refs = _leading_refs(*inputs)[kind]
            with mpmath.workdps(60):
                for key, ref in zip(asym.LEADING_KEYS, refs):
                    err = abs(mpmath.mpf(e.leading[key]) - ref)
                    assert err <= _half_ulp(ref, ctx) + _slack(ref, ctx), (kind, inputs, key)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_value_at_one_constant_at_tiny_exponents(self, mode):
        # -log Gamma(1 + alpha), about 0.58 alpha, keeps its relative digits
        for alpha in (1e-300, -1e-20, 1e-10):
            with precision_mode(mode) as ctx:
                const = asym.value_at_one_expansion(JacobiParams(alpha, 0), 0).leading["const"]
            with mpmath.workdps(400):
                ref = -mpmath.loggamma(1 + mpmath.mpf(alpha))
                assert abs(mpmath.mpf(const) - ref) <= _half_ulp(ref, ctx) + _slack(ref, ctx)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_partial_sums(self, mode):
        worst = 0
        with precision_mode(mode) as ctx:
            built = list(_every_expansion(asym.max_order()))
            for kind, inputs, e in built:
                for n in (2, 3, 10, 10**3, 10**6, 10**9):
                    sums = asym.truncations(e, n)
                    with mpmath.workdps(60):
                        lead = {k: mpmath.mpf(v) for k, v in e.leading.items()}
                        x, log_n = mpmath.mpf(n), mpmath.log(n)
                        ref = (lead["n2"] * x * x + lead["nlogn"] * x * log_n + lead["n"] * x
                               + lead["logn"] * log_n + lead["const"])
                        refs = [ref]
                        for m, c in enumerate(e.tail, 1):
                            ref += mpmath.mpf(c) / x ** m
                            refs.append(ref)
                        for m, (value, ref) in enumerate(zip(sums, refs)):
                            ulps = abs(mpmath.mpf(value) - ref) / (2 * _half_ulp(ref, ctx))
                            worst = max(worst, ulps)
                            assert ulps <= 0.5, (kind, inputs, n, m, ulps)
        assert worst > 0.49  # the references see the ulps the check counts

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_partial_sums_of_int_coefficients(self, mode):
        # an Expansion built by hand may hold ints: -n log n + 2n + 3 log n
        # - 1 + 5/n - 7/n^2 at n = 10, each sum its exact value rounded once
        e = asym.Expansion("by_hand", {}, {"n2": 0, "nlogn": -1, "n": 2, "logn": 3, "const": -1},
                           (5, -7))
        with precision_mode(mode) as ctx:
            sums = asym.truncations(e, 10)
        with mpmath.workdps(60):
            ref = -10 * mpmath.log(10) + 20 + 3 * mpmath.log(10) - 1
            for value, tail in zip(sums, (0, mpmath.mpf(1) / 2, mpmath.mpf(43) / 100)):
                assert abs(mpmath.mpf(value) - ref - tail) <= _half_ulp(ref + tail, ctx)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_partial_sums_that_cancel(self, mode):
        # where the leading terms cancel, the sums are formed again with the
        # bits they lack: at n = 2 the [10, 11] truncations are -0.17 down to
        # -0.0016, from terms up to 5.5; a value that cancels to exactly 0
        # (every coefficient of log P_n(1) at alpha = 0) is 0
        with precision_mode(mode) as ctx:
            e = asym.general_interval_energy_expansion(10, 11, 4)
            sums = asym.truncations(e, 2)
            zero = asym.truncations(asym.value_at_one_expansion(JacobiParams(0, 1), 4), 7)
        assert all(v == 0 for v in zero)
        with mpmath.workdps(60):
            lead = {k: mpmath.mpf(v) for k, v in e.leading.items()}
            ref = (4 * lead["n2"] + 2 * lead["nlogn"] * mpmath.log(2) + 2 * lead["n"]
                   + lead["logn"] * mpmath.log(2) + lead["const"])
            for m, value in enumerate(sums):
                ref += mpmath.mpf(e.tail[m - 1]) / 2 ** m if m else 0
                assert abs(mpmath.mpf(value) - ref) <= _half_ulp(ref, ctx), m


class TestRuntimeRoute:
    """psi^(-2) and the endpoint term from the fused kernel, the Bernoulli
    numbers from the tangent numbers: no mpmath.zeta, no mpmath.bernfrac."""

    @pytest.mark.parametrize("dps", [26, 42, 130])
    def test_endpoint_against_loggamma_and_zeta(self, dps):
        # x log Gamma(x) - psi^(-2)(x), with psi^(-2) from Hurwitz zeta'
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            for x in map(mpmath.mpf, ["1e-300", "1e-6", "0.3", "1.5", "2", "7.75", "1e3", "2e16"]):
                value = endpoint_mp(x)
                with mpmath.workdps(dps + 30), mpmath.extraprec(max(0, -mpmath.mag(x))):
                    ref = (x * mpmath.loggamma(x) - mpmath.zeta(-1, x, 1) + mpmath.zeta(-1, 1, 1)
                           - x * (1 - x) / 2 - x / 2 * mpmath.log(2 * mpmath.pi))
                    assert abs(value - ref) <= abs(ref) * mpmath.mpf(2) ** (1 - prec), (dps, x)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_coeffs_call_neither_zeta_nor_bernfrac(self, mode, monkeypatch):
        # from empty tables and memo, as in a new process, every kind at its
        # highest order; log A does not come from mpmath.glaisher either
        def forbidden(*_):
            raise AssertionError("mpmath.zeta or mpmath.bernfrac called")

        monkeypatch.setattr(mpmath, "zeta", forbidden)
        monkeypatch.setattr(mpmath, "bernfrac", forbidden)
        monkeypatch.setattr(mpmath, "glaisher", None)
        for cache in (specfun.memo, specfun._fixed_data, specfun._bernoulli_table,
                      specfun._bernoulli_row):
            cache.cache_clear()
        with precision_mode(mode):
            for kind in cli.KINDS:
                cli.cmd_coeffs(cli.RunConfig("coeffs", kind, p=0.3, q=2.75, a=-1.0, b=2.0,
                                             order=asym.max_order()))

    #: the last Bernoulli polynomial row an order-M tail of each kind reads,
    #: as M + this: B_(M+1) for zeta(-M, .), B_(M+2) where the kind also
    #: needs zeta(-M-1, .); the interval kinds read Bernoulli numbers only
    TOP_ROW = {"lambda": 1, "p1": 1, "disc": 2, "potential": 2, "elliptic": 2,
               "interval": None, "general-interval": None}

    @pytest.mark.parametrize("kind", TOP_ROW)
    def test_rows_built_to_the_order(self, kind):
        # the first order-4 expansion from empty caches builds the rows it
        # reads, from row 1, and none past order + 2
        order = 4
        specfun._bernoulli_table.cache_clear()
        specfun._bernoulli_row.cache_clear()
        cli.cmd_coeffs(cli.RunConfig("coeffs", kind, p=0.3, q=2.75, a=-1.0, b=2.0, order=order))
        extra = self.TOP_ROW[kind]
        assert specfun._bernoulli_row.cache_info().currsize == (0 if extra is None
                                                                 else order + extra)


class TestEvaluateExpansion:
    def test_leading_only(self):
        e = asym.interval_energy_expansion(3)
        n = 25
        manual = (float(e.leading["n2"]) * n * n + float(e.leading["nlogn"]) * n * math.log(n)
                  + float(e.leading["n"]) * n + float(e.leading["logn"]) * math.log(n)
                  + float(e.leading["const"]))
        assert asym.evaluate_expansion(e, n, 0) == pytest.approx(manual, rel=1e-15)

    def test_truncation_difference_matches_coefficient(self):
        e = asym.interval_energy_expansion(2)
        n = 200
        delta = abs(asym.evaluate_expansion(e, n, 2) - asym.evaluate_expansion(e, n, 1))
        assert delta <= 23 / 192 * n ** -2 * 1.5
        assert delta >= 23 / 192 * n ** -2 * 0.5

    def test_precision_floor_detection(self):
        # once truncation error falls under the float64 floor, adding terms
        # stops improving: detect the flattening empirically
        e = asym.interval_energy_expansion(10)
        n = 320
        exact = energy.interval_energy_exact(n)
        errs = [abs(exact - asym.evaluate_expansion(e, n, m)) for m in range(11)]
        assert errs[1] < errs[0]
        floor = min(errs)
        assert min(errs[8:]) <= 10 * max(floor, 1e-16 * abs(exact))

    def test_capacity_and_domain_errors(self):
        e = asym.interval_energy_expansion(2)
        with pytest.raises(CapacityError):
            asym.evaluate_expansion(e, 10, 3)
        with pytest.raises(DomainError):
            asym.evaluate_expansion(e, 1, 1)
        with pytest.raises(CapacityError):
            asym.interval_energy_expansion(asym.max_order() + 1)


class TestCompositionConsistency:
    """Recompose the energy expansions from the building-block expansions,
    exactly, coefficient by coefficient in the symbol basis
    {1, log2, logpi, logA, lgamma, psi}."""

    CHARGES = [
        (Fraction(1), Fraction(1)),
        (Fraction(7, 10), Fraction(13, 10)),
        (Fraction(2), Fraction(3, 5)),
    ]

    @pytest.mark.parametrize("p,q", CHARGES)
    def test_potential_from_parts(self, p, q):
        order = 6
        alpha = 2 * p - 1
        beta = 2 * q - 1
        lam = lambda_series(alpha, beta, order + 1)  # times_n consumes one order
        composed = plus(
            times_n(scaled(lam, 2)),
            scaled(lam, 2 * (p + q - 1)),
            scaled(disc_series(alpha, beta, order), -1),
            scaled(p1_series(alpha, "lgamma_2p", order), -2 * p),
            scaled(p1_series(beta, "lgamma_2q", order), -2 * q),
        )
        target = potential_target(p, q, order)
        problems = diff_report(composed, target, min_power=-order)
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("p,q", CHARGES)
    def test_elliptic_from_parts(self, p, q):
        order = 6
        alpha = 2 * p - 1
        beta = 2 * q - 1
        lam = lambda_series(alpha, beta, order + 1)
        composed = plus(
            times_n(scaled(lam, 2)),
            scaled(lam, -2),
            scaled(disc_series(alpha, beta, order), -1),
        )
        target = elliptic_target(p, q, order)
        problems = diff_report(composed, target, min_power=-order)
        assert not problems, "\n".join(problems)

    def test_interval_from_discriminant_product(self):
        # E(N) = -N(N-1) log2 - N logN + 3 zeta'(-1,1)
        #        - 3 Z(N+0) - Z(N-1) + Z(2N-1),
        # i.e. the hyperfactorial form of the N-th discriminant expanded
        # through the zeta'(-1, x+a) asymptotics with a in {0, -1}
        order = 6
        composed = new_series()
        add_term(composed, 2, 0, "log2", -1)
        add_term(composed, 1, 0, "log2", 1)
        add_term(composed, 1, 1, "1", -1)
        add_term(composed, 0, 0, "1", Fraction(1, 4))    # 3 * 1/12
        add_term(composed, 0, 0, "logA", -3)             # 3 * (-log A)
        composed = plus(
            composed,
            scaled(zeta_prime_series(1, Fraction(0), order), -3),
            scaled(zeta_prime_series(1, Fraction(-1), order), -1),
            zeta_prime_series(2, Fraction(-1), order),
        )
        target = new_series()
        add_term(target, 2, 0, "log2", 1)
        add_term(target, 1, 1, "1", -1)
        add_term(target, 1, 0, "log2", -2)
        add_term(target, 0, 1, "1", Fraction(-1, 4))
        add_term(target, 0, 0, "log2", Fraction(13, 12))
        add_term(target, 0, 0, "logA", -3)
        add_tail(target, asym._interval_tail(order))
        problems = diff_report(composed, target, min_power=-order)
        assert not problems, "\n".join(problems)


class TestSerialization:
    def test_round_trip_std(self):
        e = asym.potential_energy_expansion(0.7, 1.3, 5)
        data = json.loads(json.dumps(asym.expansion_to_json(e)))
        back = expansion_from_json(data)
        assert back.kind == e.kind
        assert back.params == e.params
        assert back.tail == e.tail
        assert back.leading == e.leading

    def test_round_trip_ext(self):
        with precision_mode("ext"):
            e = asym.discriminant_expansion(JacobiParams(0.4, 1.6), 4)
            data = json.loads(json.dumps(asym.expansion_to_json(e)))
            back = expansion_from_json(data)
            assert all(u == v for u, v in zip(back.tail, e.tail))
            assert all(back.leading[k] == e.leading[k] for k in asym.LEADING_KEYS)

    def test_field_names(self):
        data = asym.expansion_to_json(asym.interval_energy_expansion(2))
        assert set(data) == {"kind", "params", "leading", "tail"}
        assert list(data["leading"]) == ["n2", "nlogn", "n", "logn", "const"]
        assert data["tail"][0] == 0.25

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            expansion_from_json({"kind": "nope", "leading": {}, "tail": []})


class TestTailSanity:
    def test_tails_finite_and_stable(self):
        # rational assembly vs float-input assembly agree to 1e-10 relative
        for (p, q) in [(0.3, 2.9), (1.5, 0.2), (3.0, 3.0)]:
            exact_tails = exact_tail(asym._potential_tail(10, Fraction(p), Fraction(q)))
            float_tails = exact_tail(asym._potential_tail(10, p, q))
            for exact, via_float in zip(exact_tails, float_tails):
                exact_f = float(exact)
                assert math.isfinite(exact_f)
                if exact != 0:
                    assert abs(float(via_float) - exact_f) <= 1e-10 * abs(exact_f)

    def test_psi_brackets_finite_and_stable(self):
        for (p, q) in [(0.3, 2.9), (1.5, 0.2), (3.0, 3.0)]:
            alpha, beta = 2 * p - 1, 2 * q - 1
            exact_tails = exact_tail(asym._discriminant_tail(10, Fraction(alpha), Fraction(beta)))
            float_tails = exact_tail(asym._discriminant_tail(10, alpha, beta))
            for exact, via_float in zip(exact_tails, float_tails):
                assert math.isfinite(float(exact))
                if exact != 0:
                    assert abs(float(via_float) - float(exact)) <= 1e-10 * abs(float(exact))

    def test_ext_order_capacity(self):
        with precision_mode("ext"):
            e = asym.interval_energy_expansion(16)
            assert e.order == 16
        with pytest.raises(CapacityError):
            asym.interval_energy_expansion(11)
