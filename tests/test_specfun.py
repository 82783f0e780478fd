import math
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from fekete import specfun
from fekete.exceptions import CapacityError, DomainError
from fekete.precision import precision_mode

from _util import fit_slope, rel_close


class TestBernoulli:
    def test_numbers_match_sympy(self):
        # oracle: sympy's Bernoulli polynomial at 0 (convention-independent)
        table = specfun.bernoulli_table()
        for m in range(table.max_order + 1):
            expected = Fraction(str(sympy.Rational(sympy.bernoulli(m, 0))))
            assert specfun.bernoulli_number(m) == expected

    def test_b1_convention(self):
        assert specfun.bernoulli_number(1) == Fraction(-1, 2)
        assert specfun.bernoulli_poly_fraction(1, Fraction(0)) == Fraction(-1, 2)

    def test_odd_numbers_vanish(self):
        for k in range(1, 16):
            assert specfun.bernoulli_number(2 * k + 1) == 0

    def test_poly_against_sympy(self):
        for m in (0, 1, 2, 5, 12, 23, 34):
            for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 4), Fraction(5, 2)):
                expected = Fraction(str(sympy.Rational(sympy.bernoulli(m, sympy.Rational(x)))))
                assert specfun.bernoulli_poly_fraction(m, x) == expected

    def test_examples(self):
        assert specfun.bernoulli_poly(0, 0.7) == 1.0
        assert specfun.bernoulli_poly(1, 0) == -0.5
        assert specfun.bernoulli_poly_fraction(4, Fraction(0)) == Fraction(-1, 30)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            specfun.bernoulli_poly(35, 0.5)
        with pytest.raises(CapacityError):
            specfun.bernoulli_number(33)

    @given(
        m=st.integers(min_value=0, max_value=32),
        x=st.fractions(min_value=-2, max_value=3, max_denominator=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_difference_identity_exact(self, m, x):
        # B_m(x+1) - B_m(x) = m x^(m-1), exactly in rational arithmetic
        lhs = specfun.bernoulli_poly_fraction(m, x + 1) - specfun.bernoulli_poly_fraction(m, x)
        rhs = m * x ** (m - 1) if m >= 1 else Fraction(0)
        assert lhs == rhs

    def test_difference_identity_float_path(self):
        # relative to the operand scale: the subtraction itself is exact in
        # rational arithmetic, the only error is the final float rounding
        for m in range(specfun.bernoulli_table().max_order + 1):
            for x in (-2.0, -0.3, 0.0, 0.7, 1.9, 3.0):
                left = specfun.bernoulli_poly(m, x + 1)
                right = specfun.bernoulli_poly(m, x)
                rhs = m * x ** (m - 1) if m >= 1 else 0.0
                scale = max(1.0, abs(left), abs(right), abs(rhs))
                assert abs((left - right) - rhs) <= 1e-12 * scale


class TestHurwitzZetaNegint:
    def test_examples(self):
        assert specfun.hurwitz_zeta_negint_fraction(1, Fraction(1)) == Fraction(-1, 12)
        assert specfun.hurwitz_zeta_negint_fraction(0, Fraction(1)) == Fraction(-1, 2)
        assert specfun.hurwitz_zeta_negint_fraction(1, Fraction(2)) == Fraction(-13, 12)

    def test_reduces_to_riemann_zeta(self):
        for m in range(1, 13):
            ours = specfun.hurwitz_zeta_negint_fraction(m, Fraction(1))
            expected = Fraction(str(sympy.Rational(sympy.zeta(-m))))
            assert ours == expected

    @given(
        m=st.integers(min_value=0, max_value=20),
        a=st.fractions(min_value=Fraction(-31, 32), max_value=4, max_denominator=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_shift_identity(self, m, a):
        # zeta(-m, a) = a^m + zeta(-m, a+1), exact
        if a == 0 and m == 0:
            return  # 0^0 handled as 1 by the identity; skip the ambiguous corner
        lhs = specfun.hurwitz_zeta_negint_fraction(m, a)
        rhs = a ** m + specfun.hurwitz_zeta_negint_fraction(m, a + 1)
        assert lhs == rhs

    def test_domain_error(self):
        with pytest.raises(DomainError):
            specfun.hurwitz_zeta_negint(2, -1.0)
        with pytest.raises(DomainError):
            specfun.hurwitz_zeta_negint(2, -1.5)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            specfun.hurwitz_zeta_negint(34, 1.0)

    def test_scalar_path(self):
        assert specfun.hurwitz_zeta_negint(1, 1) == pytest.approx(-1 / 12, rel=1e-15)
        assert specfun.hurwitz_zeta_negint(1, 2.0) == pytest.approx(-13 / 12, rel=1e-15)


class TestLogGamma:
    def test_trivial(self):
        assert specfun.log_gamma(1.0) == 0.0
        assert specfun.log_gamma(2.0) == 0.0

    def test_half(self):
        assert rel_close(specfun.log_gamma(0.5), 0.5 * math.log(math.pi), 1e-14)

    def test_against_mpmath(self):
        for x in (0.1, 0.9, 3.7, 12.0, 250.5):
            expected = float(mpmath.loggamma(mpmath.mpf(x)))
            assert rel_close(specfun.log_gamma(x), expected, 1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.log_gamma(-2.5)


class TestLogGammaAsym:
    def test_error_bounded_by_first_omitted_term(self):
        # first omitted term at order 0, a=1: |zeta(-1,1)| / x = 1/(12 x)
        diff = abs(specfun.log_gamma_asym(10, 1, 0) - specfun.log_gamma(11))
        assert diff <= 1 / 120

    def test_direct_formula_value(self):
        # order-0 truncation is (x + a - 1/2) log x - x + log(2 pi)/2
        value = specfun.log_gamma_asym(10, 1, 0)
        assert rel_close(value, 10.5 * math.log(10) - 10 + 0.5 * math.log(2 * math.pi), 1e-15)

    def test_high_order_accuracy(self):
        diff = abs(specfun.log_gamma_asym(50, 1, 3) - specfun.log_gamma(51))
        assert diff <= 1e-8

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_decay_slope(self, order):
        xs = (20, 40, 80, 160)
        errs = [abs(specfun.log_gamma_asym(x, 1.375, order) - specfun.log_gamma(x + 1.375))
                for x in xs]
        slope = fit_slope(xs, errs)
        assert abs(slope + (order + 1)) <= 0.2

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_gamma_asym(0.5, 1, 2)


class TestNegapolygamma2:
    def test_raabe(self):
        # independent oracle: adaptive quadrature of gammaln over [0, 1]
        oracle, err = quad(gammaln, 0, 1, limit=200)
        assert err < 1e-10
        assert abs(oracle - 0.5 * math.log(2 * math.pi)) <= 1e-9
        assert abs(specfun.negapolygamma2(1) - 0.5 * math.log(2 * math.pi)) <= 1e-13

    def test_at_two(self):
        assert abs(specfun.negapolygamma2(2) - (math.log(2 * math.pi) - 1)) <= 1e-13

    def test_empty_integral(self):
        assert specfun.negapolygamma2(0) == 0.0

    def test_against_quad_oracle(self):
        for x in (0.3, 0.5, 1.7, 4.25, 9.5):
            oracle, err = quad(gammaln, 0, x, limit=400)
            assert err < 1e-10
            assert abs(specfun.negapolygamma2(x) - oracle) <= 1e-9

    def test_absolute_accuracy_vs_mpmath(self):
        for x in (0.3, 1.0, 1.5, 2.5, 2.6, 5.5, 10.0):
            with mpmath.workdps(40):
                ref = ((1 - mpmath.mpf(x)) * x / 2 + mpmath.mpf(x) / 2 * mpmath.log(2 * mpmath.pi)
                       - mpmath.zeta(-1, 1, 1) + mpmath.zeta(-1, mpmath.mpf(x), 1))
                err = abs(specfun.negapolygamma2(x) - ref)
            assert err <= 0.5 * math.ulp(float(ref)) + 1e-20

    def test_relative_accuracy_near_zero(self):
        # independent of zeta'(-1, x), whose identity cancels ~log10(1/x)
        # digits: x - x log x - gamma x^2/2 + sum_k (-1)^k zeta(k) x^(k+1)/(k(k+1))
        for x in (1e-300, 1e-15, 2e-9, 1e-3):
            with mpmath.workdps(50):
                t = mpmath.mpf(x)
                ref = (t - t * mpmath.log(t) - mpmath.euler * t * t / 2
                       + mpmath.fsum((-1) ** k * mpmath.zeta(k) * t ** (k + 1) / (k * (k + 1))
                                     for k in range(2, 30)))
                assert abs(specfun.negapolygamma2(x) - ref) <= 0.5 * math.ulp(float(ref))
            with precision_mode("ext"):
                value = specfun.negapolygamma2(x)
            with mpmath.workdps(50):
                assert abs(value - ref) <= ref * mpmath.mpf(10) ** -31

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.negapolygamma2(-0.1)

    def test_extended_mode(self):
        with precision_mode("ext"):
            value = specfun.negapolygamma2(1)
            with mpmath.workdps(40):
                ref = mpmath.log(2 * mpmath.pi) / 2
            assert abs(value - ref) < mpmath.mpf(10) ** -28


class TestZetaPrimeNeg1:
    def test_at_one_equals_constant(self):
        c = specfun.constants()
        assert abs(specfun.zeta_prime_neg1_exact(1) - c.zeta_prime_neg1) <= 1e-13

    def test_at_two_equals_at_one(self):
        # zeta(s, 2) = zeta(s) - 1, whose s-derivative at -1 is unchanged
        v1 = specfun.zeta_prime_neg1_exact(1)
        v2 = specfun.zeta_prime_neg1_exact(2)
        assert abs(v1 - v2) <= 1e-13

    def test_against_mpmath(self):
        for x in (0.5, 1.5, 3.7, 41.0):
            with mpmath.workdps(40):
                ref = float(mpmath.zeta(-1, mpmath.mpf(x), 1))
            assert abs(specfun.zeta_prime_neg1_exact(x) - ref) <= 1e-11 * max(1, abs(ref))

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.zeta_prime_neg1_exact(0.0)


class TestZetaPrimeNeg1Asym:
    def test_k2_gap(self):
        # first omitted term is zeta(-3,1)/(2*3) x^-2 = x^-2/720
        gap = abs(specfun.zeta_prime_neg1_asym(40, 1, 2) - specfun.zeta_prime_neg1_exact(41))
        assert gap <= 3 / (720 * 40 ** 2)
        assert gap >= 0.3 / (720 * 40 ** 2)  # genuinely O(x^-2), not smaller

    def test_leading_terms_arithmetic(self):
        # K=2, a=1: zeta(-2,1) = 0 kills the tail; reconstruct the formula
        value = specfun.zeta_prime_neg1_asym(10, 1, 2)
        z0 = -0.5   # zeta(0, 1)
        z1 = -1 / 12  # zeta(-1, 1)
        expected = (0.5 * 100 * math.log(10) - 25
                    - z0 * 10 * math.log(10) - z1 * math.log(10) - z1)
        assert rel_close(value, expected, 1e-14)
        # and the two quadratic leading terms alone are 100 log(10)/2 - 100/4
        assert rel_close(0.5 * 100 * math.log(10) - 0.25 * 100,
                         90.12925464970229, 1e-14)

    def test_extended_mode_high_order(self):
        with precision_mode("ext"):
            gap = abs(specfun.zeta_prime_neg1_asym(40, 0.5, 6)
                      - specfun.zeta_prime_neg1_exact(40.5))
            assert gap <= 1e-10

    def test_decay_slope_std_k2(self):
        xs = (20, 40, 80, 160)
        errs = [abs(specfun.zeta_prime_neg1_asym(x, 1.375, 2)
                    - specfun.zeta_prime_neg1_exact(x + 1.375)) for x in xs]
        assert abs(fit_slope(xs, errs) + 2) <= 0.2

    def test_decay_slope_std_k3(self):
        # smaller x keeps the K=3 error above the float64 noise of the
        # O(x^2 log x) quadrature value
        xs = (16, 24, 40, 64)
        errs = [abs(specfun.zeta_prime_neg1_asym(x, 1.375, 3)
                    - specfun.zeta_prime_neg1_exact(x + 1.375)) for x in xs]
        assert abs(fit_slope(xs, errs) + 3) <= 0.2

    @pytest.mark.parametrize("order", [3, 4, 6])
    def test_decay_slope_ext(self, order):
        with precision_mode("ext"):
            xs = (20, 40, 80, 160)
            errs = [abs(specfun.zeta_prime_neg1_asym(x, 1.375, order)
                        - specfun.zeta_prime_neg1_exact(x + 1.375)) for x in xs]
            slope = fit_slope(xs, errs)
            assert abs(slope + order) <= 0.2

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.zeta_prime_neg1_asym(40, 1, 1)
        with pytest.raises(DomainError):
            specfun.zeta_prime_neg1_asym(1.5, 1, 3)

    def test_negative_shift_allowed(self):
        # a = -1 is meaningful through the Bernoulli-polynomial values
        with mpmath.workdps(40):
            ref = float(mpmath.zeta(-1, mpmath.mpf(49), 1))
        assert abs(specfun.zeta_prime_neg1_asym(50, -1, 6) - ref) <= 1e-9


class TestConstants:
    def test_glaisher_digits(self):
        c = specfun.constants()
        assert abs(math.exp(c.log_glaisher) - 1.28242712) <= 1e-8

    def test_zeta_prime_identity(self):
        c = specfun.constants()
        assert c.zeta_prime_neg1 == pytest.approx(1 / 12 - c.log_glaisher, rel=1e-15)

    def test_against_mpmath_derivative(self):
        with mpmath.workdps(40):
            ref = float(mpmath.zeta(-1, 1, 1))
        assert abs(specfun.constants().zeta_prime_neg1 - ref) <= 1e-14

    def test_half_log_2pi(self):
        assert specfun.constants().half_log_2pi == pytest.approx(
            0.5 * math.log(2 * math.pi), rel=1e-15)
