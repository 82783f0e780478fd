import functools
import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from fekete import asym, specfun
from fekete.exceptions import DomainError
from fekete.jacobi import JacobiParams
from fekete.precision import active, precision_mode

from _tails import bernoulli_poly_fraction, bernoulli_poly_from_numerators, zeta_from_numerators
from _util import (bernoulli_poly_horner, fit_slope, guarded, ln2, log_gamma_asym, log_glaisher,
                   log_glaisher_mp, psi2_mp, rel_close, zeta_prime_neg1_asym)


def _zeta_prime(x):
    """zeta'(-1, x) by mpmath at its working precision."""
    return mpmath.zeta(-1, mpmath.mpf(x), 1)


def _log_gamma(x):
    return mpmath.loggamma(mpmath.mpf(x))


class TestBernoulli:
    def test_numbers_match_sympy(self):
        # oracle: sympy's Bernoulli polynomial at 0 (convention-independent)
        for m in range(33):
            expected = Fraction(str(sympy.Rational(sympy.bernoulli(m, 0))))
            assert specfun.bernoulli_number(m) == expected

    def test_b1_convention(self):
        assert specfun.bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_poly_from_numerators(1, Fraction(0)) == Fraction(-1, 2)
        assert bernoulli_poly_fraction(1, Fraction(0)) == Fraction(-1, 2)

    def test_odd_numbers_vanish(self):
        for k in range(1, 16):
            assert specfun.bernoulli_number(2 * k + 1) == 0

    def test_poly_against_sympy(self):
        for m in (0, 1, 2, 5, 12, 23, 34):
            for x in (Fraction(0), Fraction(1, 3), Fraction(-7, 4), Fraction(5, 2)):
                expected = Fraction(str(sympy.Rational(sympy.bernoulli(m, sympy.Rational(x)))))
                assert bernoulli_poly_from_numerators(m, x) == expected
                assert bernoulli_poly_fraction(m, x) == expected

    def test_examples(self):
        for b in (bernoulli_poly_from_numerators, bernoulli_poly_fraction):
            assert b(0, Fraction(7, 10)) == 1
            assert b(1, Fraction(0)) == Fraction(-1, 2)
            assert b(4, Fraction(0)) == Fraction(-1, 30)

    def test_numbers_match_bernfrac(self):
        for m in range(101):
            assert specfun.bernoulli_number(m) == Fraction(*mpmath.bernfrac(m)), m

    def test_tangent_source_matches_bernfrac(self):
        # from empty caches, as in a new process: one table per power of two
        # n = 32, ..., 256 that the indices reach
        specfun._bernoulli_table.cache_clear()
        assert specfun._bernoulli(10) == Fraction(5, 66)
        for m in range(301):
            assert specfun._bernoulli(m) == Fraction(*mpmath.bernfrac(m)), m
        assert specfun._bernoulli_table.cache_info().currsize == 4

    @given(
        m=st.integers(min_value=0, max_value=32),
        x=st.fractions(min_value=-2, max_value=3, max_denominator=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_difference_identity_exact(self, m, x):
        # B_m(x+1) - B_m(x) = m x^(m-1), exactly in rational arithmetic
        lhs = bernoulli_poly_from_numerators(m, x + 1) - bernoulli_poly_from_numerators(m, x)
        rhs = m * x ** (m - 1) if m >= 1 else Fraction(0)
        assert lhs == rhs

    @given(
        m=st.integers(min_value=0, max_value=34),
        num=st.integers(min_value=-10**6, max_value=10**6),
        den=st.one_of(st.integers(min_value=0, max_value=60).map(lambda e: 2 ** e),
                      st.integers(min_value=0, max_value=5000).map(lambda k: 2 * k + 1)),
    )
    @example(m=34, num=0, den=1)
    @example(m=33, num=-7, den=2 ** 55)
    @settings(max_examples=300, deadline=None)
    def test_integer_horner_matches_fraction_horner(self, m, num, den):
        # the one-pass numerators of fekete and the row Horner of the test
        # reference, both against the plain Fraction Horner over bernfrac
        x = Fraction(num, den)
        expected = bernoulli_poly_horner(m, x)
        for value in (bernoulli_poly_from_numerators(m, x), bernoulli_poly_fraction(m, x)):
            assert ((value.numerator, value.denominator)
                    == (expected.numerator, expected.denominator))

    def test_rows_grown_by_racing_threads(self):
        # threads building the rows from empty to different orders at once
        # each get the rows a single thread builds
        reference = [specfun._bernoulli_row(m) for m in range(41)]
        specfun._bernoulli_row.cache_clear()
        results = {}

        def grow(top):
            results[top] = [specfun._bernoulli_row(m) for m in range(top + 1)]

        tops = range(3, 41, 3)
        _race(grow, tops)
        assert len(results) == len(tops)
        for top, rows in results.items():
            assert rows == reference[:top + 1], top
        assert [specfun._bernoulli_row(m) for m in range(41)] == reference

    def test_numbers_by_racing_threads(self):
        # threads asking for long and short tables at once, from empty
        # caches, each get the exact number, and a second pass finds every
        # table it needs: no table that a late, short build replaced
        specfun._bernoulli_table.cache_clear()
        results = {}

        def ask(m):
            results[m] = specfun._bernoulli(m)

        ms = (300, 5, 200, 7, 100)
        _race(ask, ms)
        assert results == {m: Fraction(*mpmath.bernfrac(m)) for m in ms}
        misses = specfun._bernoulli_table.cache_info().misses
        for m in ms:
            specfun._bernoulli(m)
        assert specfun._bernoulli_table.cache_info().misses == misses


def _race(target, args):
    """``target(a)`` for each a in ``args``, one thread each, all at once,
    with the interpreter switching threads every microsecond."""
    threads = [threading.Thread(target=target, args=(a,)) for a in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestHurwitzZetaNegint:
    def test_examples(self):
        assert zeta_from_numerators(1, Fraction(1)) == Fraction(-1, 12)
        assert zeta_from_numerators(0, Fraction(1)) == Fraction(-1, 2)
        assert zeta_from_numerators(1, Fraction(2)) == Fraction(-13, 12)

    def test_reduces_to_riemann_zeta(self):
        for m in range(1, 13):
            ours = zeta_from_numerators(m, Fraction(1))
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
        lhs = zeta_from_numerators(m, a)
        rhs = a ** m + zeta_from_numerators(m, a + 1)
        assert lhs == rhs

    @pytest.mark.parametrize("top", [40, 61])
    def test_numerators_past_order_32_against_sympy(self, top):
        # sympy's Bernoulli polynomials, not the rows, at orders the old
        # fixed table did not reach
        for a in (Fraction(1), Fraction(1, 3), Fraction(-7, 4), Fraction(5, 2)):
            r, s = a.numerator, a.denominator
            numerators = specfun.hurwitz_zeta_negint_numerators(r, s, top)
            assert len(numerators) == top
            for k in range(top):
                num, den = numerators[k]
                expected = -sympy.bernoulli(k + 1, sympy.Rational(r, s)) / (k + 1)
                assert Fraction(num, den * s ** top) == Fraction(str(expected)), (top, a, k)


def _psi2(x):
    """psi^(-2)(x) from ``specfun.psi2_fixed`` at the guard precision of the
    active context, rounded once: the route of the expansion constants."""
    ctx = active()
    fp, value, _ = specfun.psi2_fixed(mpmath.mpf(x)._mpf_, ctx.guard_prec)
    return ctx.ratio(value, 1 << fp)


class TestLogGamma:
    """mpmath.loggamma, the log-gamma of the expansion constants."""

    def test_trivial(self):
        assert guarded(mpmath.loggamma, 1.0) == 0.0
        assert guarded(mpmath.loggamma, 2.0) == 0.0

    def test_half(self):
        assert rel_close(guarded(mpmath.loggamma, 0.5), 0.5 * math.log(math.pi), 1e-14)

    def test_against_mpmath(self):
        for x in (0.1, 0.9, 3.7, 12.0, 250.5):
            expected = float(mpmath.loggamma(mpmath.mpf(x)))
            assert rel_close(guarded(mpmath.loggamma, x), expected, 1e-14)

    def test_domain(self):
        # log Gamma is taken at alpha + 1 and 2p, which the inputs keep > 0
        with pytest.raises(DomainError):
            asym.elliptic_log_energy_expansion(0.0, 1, 2)
        with pytest.raises(DomainError):
            asym.value_at_one_expansion(JacobiParams(-2.5, 0), 2)


class TestLogGammaAsym:
    def test_error_bounded_by_first_omitted_term(self):
        # first omitted term at order 0, a=1: |zeta(-1,1)| / x = 1/(12 x)
        diff = abs(log_gamma_asym(10, 1, 0) - _log_gamma(11))
        assert diff <= 1 / 120

    def test_direct_formula_value(self):
        # order-0 truncation is (x + a - 1/2) log x - x + log(2 pi)/2
        value = log_gamma_asym(10, 1, 0)
        assert rel_close(value, 10.5 * math.log(10) - 10 + 0.5 * math.log(2 * math.pi), 1e-15)

    def test_high_order_accuracy(self):
        diff = abs(log_gamma_asym(50, 1, 3) - _log_gamma(51))
        assert diff <= 1e-8

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_decay_slope(self, order):
        xs = (20, 40, 80, 160)
        errs = [abs(log_gamma_asym(x, 1.375, order) - _log_gamma(x + 1.375))
                for x in xs]
        slope = fit_slope(xs, errs)
        assert abs(slope + (order + 1)) <= 0.2


#: arguments of the psi^(-2) reference tests: 2p at p = 5e-301, small,
#: either side of 1 and 2, around and past the shift threshold, and huge
PSI2_ARGS = ["1e-300", "1e-6", "0.3", "1.5", "2", "7.75", "1e3", "2e16"]


def _psi2_zeta(x):
    """psi^(-2)(x) from Hurwitz zeta': independent of the fused kernel."""
    return (mpmath.zeta(-1, x, 1) - mpmath.zeta(-1, 1, 1) + x * (1 - x) / 2
            + x / 2 * mpmath.log(2 * mpmath.pi))


class TestNegapolygamma2:
    def test_raabe(self):
        # independent oracle: adaptive quadrature of gammaln over [0, 1]
        oracle, err = quad(gammaln, 0, 1, limit=200)
        assert err < 1e-10
        assert abs(oracle - 0.5 * math.log(2 * math.pi)) <= 1e-9
        assert abs(_psi2(1) - 0.5 * math.log(2 * math.pi)) <= 1e-13

    def test_at_two(self):
        assert abs(_psi2(2) - (math.log(2 * math.pi) - 1)) <= 1e-13

    def test_empty_integral(self):
        assert _psi2(0) == 0.0

    def test_against_quad_oracle(self):
        for x in (0.3, 0.5, 1.7, 4.25, 9.5):
            oracle, err = quad(gammaln, 0, x, limit=400)
            assert err < 1e-10
            assert abs(_psi2(x) - oracle) <= 1e-9

    def test_absolute_accuracy_vs_mpmath(self):
        for x in (0.3, 1.0, 1.5, 2.5, 2.6, 5.5, 10.0):
            with mpmath.workdps(40):
                ref = ((1 - mpmath.mpf(x)) * x / 2 + mpmath.mpf(x) / 2 * mpmath.log(2 * mpmath.pi)
                       - mpmath.zeta(-1, 1, 1) + mpmath.zeta(-1, mpmath.mpf(x), 1))
                err = abs(_psi2(x) - ref)
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
                assert abs(_psi2(x) - ref) <= 0.5 * math.ulp(float(ref))
            with precision_mode("ext"):
                value = _psi2(x)
            with mpmath.workdps(50):
                assert abs(value - ref) <= ref * mpmath.mpf(10) ** -31

    def test_domain(self):
        # psi^(-2) is taken at alpha + 1 and 2p, which the inputs keep > 0
        with pytest.raises(DomainError):
            asym.potential_energy_expansion(-0.05, 1, 2)
        with pytest.raises(DomainError):
            asym.discriminant_expansion(JacobiParams(0, -1.1), 2)

    @pytest.mark.parametrize("dps", [26, 42, 130, 250])
    def test_against_zeta_formula(self, dps):
        # the route the kernel replaced, 30 digits beyond the working
        # precision and with log2(1/x) more bits for its cancellation at
        # small x: zeta'(-1, x) - zeta'(-1) + x(1-x)/2 + (x/2) log 2pi
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            for x in map(mpmath.mpf, PSI2_ARGS):
                value = psi2_mp(x)
                with mpmath.workdps(dps + 30), mpmath.extraprec(max(0, -mpmath.mag(x))):
                    ref = _psi2_zeta(x)
                    assert abs(value - ref) <= abs(ref) * mpmath.mpf(2) ** (1 - prec), (dps, x)

    def test_extended_mode(self):
        with precision_mode("ext"):
            value = _psi2(1)
            with mpmath.workdps(40):
                ref = mpmath.log(2 * mpmath.pi) / 2
            assert abs(value - ref) < mpmath.mpf(10) ** -28


#: arguments of the log Gamma / log G kernel test: 1 to 1e12, below and
#: above the shift threshold (about 19 at 26 digits, 145 at 250 digits),
#: dyadic and other non-integers, and 2e-300, 2p at p = 1e-300
LOG_G_ARGS = [1, 2, 3, 5, 17, 25, 40, 100, 1000, 10**6, 10**9, 10**12,
              1.5, 7.25, 0.375, 160.625, 33.3, 12345.678, 2e-300]


@functools.lru_cache(maxsize=None)
def _log_gamma_g_ref(x, dps):
    """(log Gamma(x), log G(x)) by mpmath.loggamma and mpmath.barnesg, 30
    digits beyond ``dps``."""
    with mpmath.workdps(dps + 30):
        return mpmath.loggamma(x), mpmath.log(mpmath.barnesg(x))


def _assert_kernel_close(arg):
    """Both values of the fused kernel at ``arg`` are within 2 ulp of
    max(|value|, 1) of mpmath at the working precision."""
    lg, lG = specfun.log_gamma_g_fixed(arg, mpmath.mp.prec)
    assert isinstance(lg, int) and isinstance(lG, int)
    fp = specfun.fixed_bits(mpmath.mp.prec)
    refs = _log_gamma_g_ref(mpmath.mpf(arg), mpmath.mp.dps)
    for value, ref in zip((lg, lG), refs):
        value = mpmath.mpf((value, -fp))
        two_ulp = mpmath.mpf(2) ** (mpmath.mag(max(abs(ref), 1)) - mpmath.mp.prec + 1)
        with mpmath.extradps(30):
            assert abs(value - ref) <= two_ulp, (mpmath.mp.prec, arg, value, ref)


#: non-dyadic Jacobi exponents (alpha, beta) of the discriminant's
#: arguments, and the huge exponent of the closed-form test in test_jacobi
LOG_G_EXPONENTS = [(0.3, 1.7), (-0.45, 2.9), (5.05, 11.3), (2e12, 1)]


class TestLogBarnesG:
    @pytest.mark.parametrize("dps", [26, 42, 60, 130, 250])
    def test_against_mpmath_barnesg(self, dps):
        with mpmath.workdps(dps):
            for x in LOG_G_ARGS:
                # int arguments as the discriminant passes n + 1, and mpf
                for arg in (x, mpmath.mpf(x)) if isinstance(x, int) else (mpmath.mpf(x),):
                    _assert_kernel_close(arg)

    @pytest.mark.parametrize("mode", ["std", "ext"])
    @pytest.mark.parametrize("alpha, beta", LOG_G_EXPONENTS)
    def test_discriminant_arguments(self, mode, alpha, beta):
        # at the precision Context.exact_prec gives the discriminant: the
        # mode's digits + 10 guard digits + 2 mag(alpha + beta + 2) bits
        extra = 2 * mpmath.mag(alpha + beta + 2)
        with mpmath.workdps(26 if mode == "std" else 42), mpmath.extraprec(extra):
            a1, b1 = mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1
            _assert_kernel_close(a1)
            for n in (2, 40, 2560, 10**6):
                _assert_kernel_close(n + a1)
                _assert_kernel_close((n - 1) + a1 + b1)
                _assert_kernel_close((2 * n - 1) + a1 + b1)

    @pytest.mark.parametrize("dps", [26, 42, 130, 250])
    def test_around_shift_threshold(self, dps):
        # z = x - 1 just below w (shifted by one, or by a half), at w and
        # just above (series alone), w = wp/6 + 1 with wp = fp - 8; and
        # z = 10^12, where the series need their fewest terms
        with mpmath.workdps(dps):
            w = (specfun.fixed_bits(mpmath.mp.prec) - 8) // 6 + 1
            for z in (w - 1, w - 0.5, w, w + 0.5, w + 1, 10**12):
                _assert_kernel_close(mpmath.mpf(z) + 1)
                if isinstance(z, int):
                    _assert_kernel_close(z + 1)

    def test_series_empty_at_large_z(self, monkeypatch):
        # at 26 digits, z = x - 1 just above 2^(wp/2) is past the first log
        # G term and z just above 2^wp past the first Stirling term: the
        # value is the leading terms alone, and the Horner sums are empty
        sums = []
        horner = specfun._horner

        def counting_horner(*args):
            sums.append(horner(*args))
            return sums[-1]

        monkeypatch.setattr(specfun, "_horner", counting_horner)
        with mpmath.workdps(26):
            wp = specfun.fixed_bits(mpmath.mp.prec) - 8
            for log2_z, empty in ((wp // 2 + 1, [False, True]), (wp + 1, [True, True])):
                sums.clear()
                _assert_kernel_close(mpmath.mpf(2) ** log2_z + 3)
                assert [s == 0 for s in sums] == empty, (log2_z, sums)

    def test_functional_equation(self):
        # Gamma(x + 1) = x Gamma(x) and G(x + 1) = Gamma(x) G(x), across the
        # shift threshold and down to the tiny argument of a tiny charge
        with mpmath.workdps(42):
            prec = mpmath.mp.prec
            fp = specfun.fixed_bits(prec)
            for x in (2e-300, 0.5, 1.25, 18.5, 40.75, 300.5):
                x = mpmath.mpf(x)
                lg, lG = (mpmath.mpf((v, -fp)) for v in specfun.log_gamma_g_fixed(x, prec))
                lg1, lG1 = (mpmath.mpf((v, -fp)) for v in specfun.log_gamma_g_fixed(x + 1, prec))
                assert abs(lg1 - (lg + mpmath.log(x))) <= mpmath.mpf(10) ** -40 * max(abs(lg1), 1)
                assert abs(lG1 - (lg + lG)) <= mpmath.mpf(10) ** -40 * max(abs(lG1), 1)

    def test_exact_at_one_and_two(self):
        # Gamma(1) = Gamma(2) = G(1) = G(2) = 1, so that log P_n(1) is 0 at
        # alpha = 0 and the energy at n = 1, p = q is 0, as int and as mpf
        for x in (1, 2, mpmath.mpf(1), mpmath.mpf(2)):
            assert specfun.log_gamma_g_fixed(x, mpmath.mp.prec) == (0, 0)

    def test_memo_runs_the_kernel_at_its_key(self):
        # a value filed under precision A while mpmath works at B is the
        # kernel's value at A: key and kernel take one precision, so a
        # thread that moves mpmath's working precision cannot file a value
        # of another precision under the key
        x = mpmath.mpf(2.5)
        specfun.memo.cache_clear()
        with mpmath.workprec(300):
            filed = specfun.memo(specfun.log_gamma_g_fixed, x, 100)
        with mpmath.workprec(100):
            assert filed == specfun.log_gamma_g_fixed(x, 100)
            assert specfun.memo(specfun.log_gamma_g_fixed, x, 100) is filed
        assert filed != specfun.log_gamma_g_fixed(x, 300)


class TestZetaPrimeNeg1:
    def test_at_one_equals_constant(self):
        # zeta'(-1) = 1/12 - log A
        assert abs(_zeta_prime(1) - (1 / 12 - log_glaisher())) <= 1e-13


class TestZetaPrimeNeg1Asym:
    def test_k2_gap(self):
        # first omitted term is zeta(-3,1)/(2*3) x^-2 = x^-2/720
        gap = abs(zeta_prime_neg1_asym(40, 1, 2) - _zeta_prime(41))
        assert gap <= 3 / (720 * 40 ** 2)
        assert gap >= 0.3 / (720 * 40 ** 2)  # genuinely O(x^-2), not smaller

    def test_leading_terms_arithmetic(self):
        # K=2, a=1: zeta(-2,1) = 0 kills the tail; reconstruct the formula
        value = zeta_prime_neg1_asym(10, 1, 2)
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
            gap = abs(zeta_prime_neg1_asym(40, 0.5, 6) - _zeta_prime(40.5))
            assert gap <= 1e-10

    def test_decay_slope_std_k2(self):
        xs = (20, 40, 80, 160)
        errs = [abs(zeta_prime_neg1_asym(x, 1.375, 2) - _zeta_prime(x + 1.375)) for x in xs]
        assert abs(fit_slope(xs, errs) + 2) <= 0.2

    def test_decay_slope_std_k3(self):
        # smaller x keeps the K=3 error above the float64 noise of the
        # O(x^2 log x) quadrature value
        xs = (16, 24, 40, 64)
        errs = [abs(zeta_prime_neg1_asym(x, 1.375, 3) - _zeta_prime(x + 1.375)) for x in xs]
        assert abs(fit_slope(xs, errs) + 3) <= 0.2

    @pytest.mark.parametrize("order", [3, 4, 6])
    def test_decay_slope_ext(self, order):
        with precision_mode("ext"):
            xs = (20, 40, 80, 160)
            errs = [abs(zeta_prime_neg1_asym(x, 1.375, order) - _zeta_prime(x + 1.375))
                    for x in xs]
            slope = fit_slope(xs, errs)
            assert abs(slope + order) <= 0.2

    def test_negative_shift_allowed(self):
        # a = -1 is meaningful through the Bernoulli-polynomial values
        with mpmath.workdps(40):
            ref = float(mpmath.zeta(-1, mpmath.mpf(49), 1))
        assert abs(zeta_prime_neg1_asym(50, -1, 6) - ref) <= 1e-9


class TestConstants:
    def test_glaisher_digits(self):
        assert abs(math.exp(log_glaisher()) - 1.28242712) <= 1e-8

    def test_zeta_prime_identity(self):
        # zeta'(-1) = 1/12 - log A, at the extended digits
        with precision_mode("ext"):
            value = 1 / mpmath.mpf(12) - log_glaisher()
            with mpmath.workdps(40):
                ref = mpmath.zeta(-1, 1, 1)
            assert abs(value - ref) <= mpmath.mpf(10) ** -31

    @pytest.mark.parametrize("dps", [15, 26, 42, 130, 250])
    def test_kernel_log_glaisher(self, dps):
        # log A from the kernel's zeta'(-1), against mpmath's constant
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            value = log_glaisher_mp()
            with mpmath.workdps(dps + 30):
                ref = mpmath.log(mpmath.glaisher)
                assert abs(value - ref) <= ref * mpmath.mpf(2) ** (1 - prec)

    def test_helpers_at_a_higher_working_precision(self):
        # a reference under workdps(400) gets 400-digit constants, not the
        # mode's digits + 10
        with precision_mode("ext"), mpmath.workdps(400):
            assert abs(ln2() - mpmath.log(2)) <= mpmath.mpf(10) ** -399
            assert abs(log_glaisher() - mpmath.log(mpmath.glaisher)) <= mpmath.mpf(10) ** -399
        with mpmath.workdps(400):
            assert ln2() == math.log(2)  # std stays float64

    def test_against_mpmath_derivative(self):
        with mpmath.workdps(40):
            ref = float(mpmath.zeta(-1, 1, 1))
        assert abs((1 / 12 - log_glaisher()) - ref) <= 1e-14
