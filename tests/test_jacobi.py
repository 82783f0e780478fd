import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_jacobi, roots_jacobi

from fekete import jacobi, specfun
from fekete.exceptions import CapacityError, DomainError, NumericalError
from fekete.jacobi import JacobiParams
from fekete.precision import active, precision_mode

from _util import discriminant_log_product, log_values_mp, rel_close


def evaluate(n, params, x):
    """P_n^(alpha,beta)(x) by scipy, independent of the package's recurrence."""
    return float(eval_jacobi(n, params.alpha, params.beta, x))


def newton_step(n, a, b, x):
    """P_n^(a,b)(x)/P_n'(x) by the package's one recurrence pass, at an
    array of points."""
    diag, off = jacobi._recurrence_coeffs(n, a, b)
    return jacobi._newton_step(diag, off, np.asarray(x, dtype=float))


def _fma(a, b, c):
    """a * b + c, rounded once (exact integer ratios; float powers of two
    as denominators)."""
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (na * nb * dc + nc * da * db) / (da * db * dc)


# where numpy's complex-multiply loop fuses multiply-adds
# it rounds each part once, (fma(ur, cr, -ui ci), fma(ur, ci, ui cr));
# elsewhere it rounds every product, as Python's does.  A pair whose two
# products differ tells which
_PROBE = (1.3292401940446954 - 2.100786457819467e-121j,
          2.6716241733235337 + 3.1091294534894974e-121j)
_NUMPY_FMA = complex(np.multiply(*_PROBE)) != _PROBE[0] * _PROBE[1]


def _product(u, c):
    """u * c with numpy's rounding."""
    if not _NUMPY_FMA:
        return u * c
    return complex(_fma(u.real, c.real, -(u.imag * c.imag)), _fma(u.real, c.imag, u.imag * c.real))


def scalar_newton_step(diag, off, x):
    """The recurrence of :func:`jacobi._newton_step` at one point, in plain
    Python floats, in the same operation order and with numpy's rounding of
    the complex product."""
    eps = 2.0 ** -400
    r = [1.0]
    for b in off.tolist():
        r.append(b * b / r[-1])
    prev, cur = 0j, 1 + 0j
    for k, (a_k, r_k) in enumerate(zip(diag.tolist(), r)):
        if k % 16 == 15:
            shift = -math.frexp(abs(cur.real) + abs(cur.imag) / eps)[1]
            prev, cur = (complex(math.ldexp(v.real, shift), math.ldexp(v.imag, shift))
                         for v in (prev, cur))
        inv_r = 1.0 / r_k
        u = complex((x - a_k) * inv_r, eps * inv_r)
        prev, cur = cur, _product(u, cur) - prev
    return eps * cur.real / cur.imag


def mp_log_leading(n, alpha, beta):
    with mpmath.workdps(40):
        lam = mpmath.mpf(2) ** (-n) * mpmath.binomial(2 * n + alpha + beta, n)
        return float(mpmath.log(lam))


class TestParams:
    def test_domain(self):
        with pytest.raises(DomainError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(DomainError):
            JacobiParams(0.0, -1.2)
        with pytest.raises(DomainError):
            JacobiParams.from_charges(0.0, 1.0)

    def test_charges_roundtrip(self):
        params = JacobiParams.from_charges(0.7, 1.3)
        assert params.alpha == pytest.approx(0.4)
        assert params.beta == pytest.approx(1.6)
        assert params.p == pytest.approx(0.7)
        assert params.q == pytest.approx(1.3)


class TestLeadingCoeff:
    def test_degree_zero(self):
        assert jacobi.leading_coeff_log(0, JacobiParams(0.7, -0.2)) == 0.0

    def test_legendre_p2(self):
        # P_2 = (3x^2 - 1)/2
        assert rel_close(jacobi.leading_coeff_log(2, JacobiParams(0, 0)), math.log(1.5), 1e-14)

    def test_p1_alpha_beta_one(self):
        # P_1^(1,1)(x) = 2x
        assert rel_close(jacobi.leading_coeff_log(1, JacobiParams(1, 1)), math.log(2), 1e-14)

    def test_against_mpmath_binomial(self):
        for (n, a, b) in [(5, 0.37, 2.2), (17, -0.5, 0.5), (60, 1.0, 1.0), (1, 0.0, -0.9)]:
            assert rel_close(
                jacobi.leading_coeff_log(n, JacobiParams(a, b)), mp_log_leading(n, a, b), 1e-12
            )

    def test_small_alpha_beta_sum(self):
        # alpha + beta close to -2 exercises the n >= 1 gamma arguments
        params = JacobiParams(-0.95, -0.95)
        assert rel_close(
            jacobi.leading_coeff_log(3, params), mp_log_leading(3, -0.95, -0.95), 1e-12
        )


class TestEndpointValues:
    def test_legendre_normalization(self):
        for n in (0, 1, 5, 40):
            assert abs(jacobi.value_at_one_log(n, JacobiParams(0, 2.3))) < 1e-13

    def test_pochhammer_examples(self):
        params = JacobiParams(1, 1)
        assert rel_close(jacobi.value_at_one_log(2, params), math.log(3), 1e-14)
        assert rel_close(jacobi.value_at_one_log(3, params), math.log(4), 1e-14)

    def test_minus_one_signed(self):
        # log[(-1)^n P_n^(alpha,beta)(-1)] = log P_n^(beta,alpha)(1)
        assert abs(jacobi.value_at_one_log(7, JacobiParams(0, 1.7))) < 1e-13
        assert rel_close(jacobi.value_at_one_log(2, JacobiParams(1, 1)), math.log(3), 1e-14)
        # (1+beta)_1 / 1! = 3 for beta = 2
        assert rel_close(jacobi.value_at_one_log(1, JacobiParams(2, 0)), math.log(3), 1e-14)

    def test_consistency_with_evaluate(self):
        for (n, a, b) in [(4, 0.3, 1.8), (9, 2.0, 0.1)]:
            params = JacobiParams(a, b)
            assert rel_close(
                math.exp(jacobi.value_at_one_log(n, params)),
                evaluate(n, params, 1.0),
                1e-12,
            )
            signed = (-1) ** n * evaluate(n, params, -1.0)
            assert rel_close(
                math.exp(jacobi.value_at_one_log(n, JacobiParams(b, a))), signed, 1e-12
            )


    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_guard_follows_the_exponent_involved(self, mode, monkeypatch):
        # log P_n(1) does not involve beta: at beta = 1e300 its kernel runs
        # at the precision for the size alpha + 2, not ~2000 bits above it
        precs = []
        kernel = jacobi.log_gamma_g_fixed
        monkeypatch.setattr(jacobi, "log_gamma_g_fixed",
                            lambda x, prec: precs.append(prec) or kernel(x, prec))
        with precision_mode(mode):
            for n, alpha in ((2, 0.5), (40, 3.25), (10**6, 0.1)):
                value = jacobi.value_at_one_log(n, JacobiParams(alpha, 1e300))
                with mpmath.workdps(60):
                    a = mpmath.mpf(alpha)
                    ref = (mpmath.loggamma(n + a + 1) - mpmath.loggamma(a + 1)
                           - mpmath.loggamma(n + 1))
                    bound = abs(ref) * (2.0 ** -52 if mode == "std" else mpmath.mpf(10) ** -31)
                    assert abs(value - ref) <= bound, (n, alpha)
        assert max(precs) < 256

    @pytest.mark.parametrize("mode", ["std", "ext"])
    @pytest.mark.parametrize("exponent, n", [(1e-300, 1000), (-1e-300, 1000), (1e-20, 1000),
                                             (1e-10, 1000), (0.6, 10 ** 15), (-0.6, 10 ** 15)])
    def test_tiny_exponent_against_log1p_sum(self, mode, exponent, n):
        # log P_n(1) = sum_k log(1 + alpha/k) is about alpha log n, while the
        # lgamma terms it is formed from are about n log n, so it is small
        # against them at a tiny alpha, or at n = 10^15, where n + alpha + 1
        # needs more bits than alpha + 2 gives in std; log |P_n(-1)| is the
        # same sum in beta.  Each must be its 60-digit value rounded once, up
        # to a slack of 2^-guard_prec relative.  The sum is summed term by
        # term at n = 1000, and taken as its lgamma difference at 10^15
        with mpmath.workdps(60):
            e = mpmath.mpf(exponent)
            ref = (mpmath.fsum(mpmath.log1p(e / k) for k in range(1, n + 1)) if n <= 1000 else
                   mpmath.loggamma(n + e + 1) - mpmath.loggamma(e + 1) - mpmath.loggamma(n + 1))
        with precision_mode(mode) as ctx:
            at_one = jacobi.value_at_one_log(n, JacobiParams(exponent, 0.5))
            at_minus_one = jacobi._log_value(n, JacobiParams(0.5, exponent), 3)
        with mpmath.workdps(60):
            half_ulp = mpmath.mpf(2) ** (mpmath.mag(ref) - ctx.prec - 1)
            slack = abs(ref) * mpmath.mpf(2) ** -ctx.guard_prec
            for value in (at_one, at_minus_one):
                assert abs(mpmath.mpf(value) - ref) <= half_ulp + slack, (value, ref)


class TestEvaluate:
    """The Newton step P_n/P_n' of the zero polish."""

    def test_legendre_p2(self):
        # P_2 = (3x^2 - 1)/2, P_2' = 3x, so the step is (3x^2 - 1)/(6x)
        step = newton_step(2, 0.0, 0.0, [1.0, 0.5, -0.25])
        assert step[0] == pytest.approx(1 / 3, rel=1e-15)
        assert step[1] == pytest.approx(-1 / 12, rel=1e-15)
        assert step[2] == pytest.approx(0.8125 / 1.5, rel=1e-15)

    def test_gegenbauer_zero(self):
        assert abs(newton_step(2, 1.0, 1.0, [1 / math.sqrt(5)])[0]) < 1e-16

    def test_against_scipy(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = int(rng.integers(1, 31))
            a = float(rng.uniform(-0.9, 3.0))
            b = float(rng.uniform(-0.9, 3.0))
            x = float(rng.uniform(-1, 1))
            ours = newton_step(n, a, b, [x])[0]
            ref = eval_jacobi(n, a, b, x) / ((n + a + b + 1) / 2
                                             * eval_jacobi(n - 1, a + 1, b + 1, x))
            assert rel_close(ours, ref, 1e-10) or abs(ours - ref) < 1e-12

    def test_derivative_against_finite_difference(self):
        # the derivative the step divides by, P_n / step, against a central
        # difference of scipy's P_n
        params = JacobiParams(0.6, 1.9)
        h = 1e-6
        for n in (1, 2, 7):
            xs = [-0.8, 0.05, 0.73]
            steps = newton_step(n, params.alpha, params.beta, xs)
            for x, step in zip(xs, steps):
                fd = (evaluate(n, params, x + h) - evaluate(n, params, x - h)) / (2 * h)
                assert rel_close(evaluate(n, params, x) / step, fd, 1e-7)

    @pytest.mark.parametrize("n,a,b", [(12, 0.4, 1.6), (333, 7.0, 0.5), (800, -0.9, 5.0),
                                       (60, -0.999, -0.5), (100, 1e8, 0.5)])
    def test_against_40_digits(self, n, a, b):
        # where the polish uses it: at the eigenvalues and 1e-12 either side,
        # the step is within 2.5e-16 of P_n/P_n' at 40 digits (measured:
        # 1.6e-16 at most, at n = 800)
        diag, off = jacobi._recurrence_coeffs(n, a, b)
        x0 = eigh_tridiagonal(diag, off, eigvals_only=True)
        picked = sorted({0, 1, n // 3, n // 2, n - 2, n - 1})
        xs = np.concatenate([x0[picked] + d for d in (-1e-12, 0.0, 1e-12)])
        steps = jacobi._newton_step(diag, off, xs)
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            for x, step in zip(xs.tolist(), steps.tolist()):
                exact = (_mp_jacobi(n, ma, mb, x)
                         / ((n + ma + mb + 1) / 2 * _mp_jacobi(n - 1, ma + 1, mb + 1, x)))
                assert abs(step - exact) <= 2.5e-16, (x, step, exact)


    @pytest.mark.parametrize("n,a,b", [(1, 0.4, 1.6), (2, 0.0, 0.0), (2, 1e12, 3.0),
                                       (101, 0.0, 0.0), (1000, 1e3, 1e3), (40, 1e12, 3.0),
                                       (40, -1 + 2e-9, -1 + 4e-9), (3, -1 + 2e-12, -1 + 6e-12)])
    def test_edge_cases_without_floating_point_warnings(self, n, a, b):
        # one and two degrees, x = 0 as a zero (n = 101, alpha = beta = 0),
        # q_k up to 2^990 (n = 1000, alpha = beta = 1000), a huge exponent
        # and exponents near -1: no overflow, invalid or division warning,
        # and at the picked eigenvalues the step within 2.5e-16 of P_n/P_n'
        # at 40 digits; at x = 0 every odd q_k is imaginary and the step is
        # exactly 0
        diag, off = jacobi._recurrence_coeffs(n, a, b)
        x0 = eigh_tridiagonal(diag, off, eigvals_only=True)
        xs = x0[sorted({0, n // 2, n - 1})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = jacobi._newton_step(diag, off, xs)
            points = jacobi.zeros(n, JacobiParams(a, b)).points
            if n == 101:
                assert jacobi._newton_step(diag, off, np.zeros(1))[0] == 0.0
                assert abs(points[50]) <= 1e-30
        assert all(-1 < x < 1 for x in points)
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            for x, step in zip(xs.tolist(), steps.tolist()):
                exact = (_mp_jacobi(n, ma, mb, x)
                         / ((n + ma + mb + 1) / 2 * _mp_jacobi(n - 1, ma + 1, mb + 1, x)))
                assert abs(step - exact) <= 2.5e-16, (x, step, exact)


def _mp_jacobi(n, a, b, x):
    """P_n^(a,b)(x) by the textbook three-term recurrence, in mpmath."""
    p_prev, p = 1, (a + 1) + (a + b + 2) * (x - 1) / 2
    if n == 0:
        return mpmath.mpf(1)
    for k in range(2, n + 1):
        s = 2 * k + a + b
        p_prev, p = p, (((s - 1) * (s * (s - 2) * x + a * a - b * b) * p
                         - 2 * (k + a - 1) * (k + b - 1) * s * p_prev)
                        / (2 * k * (k + a + b) * (s - 2)))
    return p


def mp_zero_error(n, a, b, x0):
    """|x0 - x|, x the zero of P_n^(a,b) that two 60-digit Newton steps
    reach from x0."""
    with mpmath.workdps(60):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x0)
        for _ in range(2):
            x -= _mp_jacobi(n, a, b, x) / ((n + a + b + 1) / 2 * _mp_jacobi(n - 1, a + 1, b + 1, x))
        return float(abs(x - x0))


class TestZeros:
    def test_linear(self):
        for (a, b) in [(0.0, 0.0), (0.4, 1.6), (2.0, 0.2)]:
            z = jacobi.zeros(1, JacobiParams(a, b))
            assert z.points[0] == pytest.approx((b - a) / (a + b + 2), abs=1e-14)

    def test_legendre_two(self):
        z = jacobi.zeros(2, JacobiParams(0, 0))
        assert z.points[0] == pytest.approx(-1 / math.sqrt(3), abs=1e-14)
        assert z.points[1] == pytest.approx(1 / math.sqrt(3), abs=1e-14)

    def test_gegenbauer_two(self):
        z = jacobi.zeros(2, JacobiParams(1, 1))
        assert z.points[0] == pytest.approx(-1 / math.sqrt(5), abs=1e-14)
        assert z.points[1] == pytest.approx(1 / math.sqrt(5), abs=1e-14)

    def test_against_scipy(self):
        for (n, a, b) in [(5, 0.0, 0.0), (20, 1.0, 1.0), (50, 0.4, 1.6), (35, -0.5, 2.5)]:
            ours = jacobi.zeros(n, JacobiParams(a, b)).points
            ref, _ = roots_jacobi(n, a, b)
            assert max(abs(u - v) for u, v in zip(ours, sorted(ref))) < 1e-12

    @given(
        n=st.integers(min_value=1, max_value=12),
        a=st.floats(min_value=-0.9, max_value=3.0, allow_nan=False),
        b=st.floats(min_value=-0.9, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_reflection(self, n, a, b):
        left = jacobi.zeros(n, JacobiParams(a, b)).points
        right = jacobi.zeros(n, JacobiParams(b, a)).points
        for u, v in zip(left, reversed(right)):
            assert abs(u + v) <= 1e-12

    def test_symmetry_when_equal(self):
        pts = jacobi.zeros(9, JacobiParams(1.4, 1.4)).points
        for u, v in zip(pts, reversed(pts)):
            assert abs(u + v) <= 1e-12

    def test_ordering_and_interiority(self):
        z = jacobi.zeros(80, JacobiParams(0.2, 2.6))
        assert all(-1 < x < 1 for x in z.points)
        assert all(u < v for u, v in zip(z.points, z.points[1:]))

    @pytest.mark.parametrize("params", [JacobiParams(0, 0), JacobiParams(1, 1),
                                        JacobiParams(0.4, 1.6)])
    def test_residuals_small(self, params):
        n = 100
        pts = jacobi.zeros(n, params).points
        grid = np.linspace(-1, 1, 4001)
        scale = max(abs(eval_jacobi(n, params.alpha, params.beta, x)) for x in grid)
        worst = max(abs(evaluate(n, params, x)) for x in pts)
        assert worst <= 1e-10 * scale

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi.zeros(0, JacobiParams(0, 0))

    @pytest.mark.parametrize("p,q", [(1e-9, 1e-9), (1e-9, 2e-9), (1e-6, 1e-6), (1e-6, 3e-6),
                                     (1e-12, 3e-12)])
    @pytest.mark.parametrize("n", [3, 40])
    def test_small_endpoint_charges(self, n, p, q):
        # exponents near -1: 2 + alpha rounds, and if the coefficients add
        # it before the cancellation the zeros move by up to 1.6e-5
        params = JacobiParams.from_charges(p, q)
        ours = jacobi.zeros(n, params).points
        with mpmath.workdps(60):
            a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
            for x0 in ours:
                x = mpmath.mpf(x0)
                for _ in range(2):  # Newton at 60 digits, where the order is moot
                    x -= (_mp_jacobi(n, a, b, x)
                          / ((n + a + b + 1) / 2 * _mp_jacobi(n - 1, a + 1, b + 1, x)))
                assert abs(x - x0) <= 1e-15, (x0, x)

    @pytest.mark.parametrize("p,q", [(1e-14, 1e-14), (1e-14, 3e-14)])
    def test_zero_rounding_onto_endpoint_is_a_capacity_error(self, p, q):
        # at 60 digits the extreme zeros of n = 200 lie 1.0e-18 and 3.0e-18
        # from +-1, far under half an ulp (5.55e-17), so they round onto it.
        # Rounding the Jacobi matrix to float64 moves them by up to ~1.1e-16,
        # which decides the cases nearer half an ulp; here the rounded
        # matrix's own extreme zeros lie within 3e-17 of +-1
        with pytest.raises(CapacityError, match="float64"):
            jacobi.zeros(200, JacobiParams.from_charges(p, q))

    @pytest.mark.parametrize("p,q", [(1e-12, 3e-12), (1e-12, 1e-12)])
    def test_zero_half_an_ulp_from_endpoint_stays_interior(self, p, q):
        # the extreme zeros lie 1.005e-16 from +-1, so their nearest floats
        # are interior: within 2.5e-16 of the 60-digit zeros
        n, params = 200, JacobiParams.from_charges(p, q)
        ours = jacobi.zeros(n, params).points
        for i in (0, 1, 2, n // 2, n - 3, n - 2, n - 1):
            assert mp_zero_error(n, params.alpha, params.beta, ours[i]) <= 2.5e-16, i

    @pytest.mark.parametrize("n,a,b", [(100, 1e8, 0.5), (40, 1e12, 3.0)])
    def test_huge_exponent(self, n, a, b):
        # P_n(+-1) overflows float64 here; the step gate does not need it.
        # Every zero within 2e-16 of a 60-digit Newton refinement
        # (measured: 1.0e-16 and 7.0e-17)
        for i, x0 in enumerate(jacobi.zeros(n, JacobiParams(a, b)).points):
            assert mp_zero_error(n, a, b, x0) <= 2e-16, i

    @pytest.mark.parametrize("n", [5, 40])
    def test_overflowed_matrix_meets_the_gate(self, n):
        # at alpha = 1e100 the Jacobi matrix entries over- and underflow: a
        # capacity limit of float64, reported without a numpy warning
        with pytest.raises(CapacityError, match="over- or underflows float64"):
            jacobi.zeros(n, JacobiParams(1e100, 0.5))

    @pytest.mark.parametrize("n,a", [(12, 1e20), (2, 1e70), (50, 1e50)])
    def test_crowded_eigenvalues_are_a_capacity_limit(self, n, a):
        # the zeros near -1 crowd below float64 resolution: the eigenvalues
        # come back as -1.0 and fail the gate with a Newton step of inf
        with pytest.raises(CapacityError, match="closer than float64 resolves"):
            jacobi.zeros(n, JacobiParams(a, 0.5))

    def test_recurrence_values_past_float64_range(self):
        # the recurrence values q_k at the largest eigenvalue reach 2^1573
        # here, so the pass rescales them; picked zeros within 2e-16 of a
        # 60-digit Newton refinement (measured: 6.6e-17)
        n, a, b = 1000, 1e3, 0.0
        ours = jacobi.zeros(n, JacobiParams(a, b)).points
        for i in (0, 1, n // 2, n - 2, n - 1):
            assert mp_zero_error(n, a, b, ours[i]) <= 2e-16, i

    @pytest.mark.parametrize("n,a,b", [(333, 7.0, 0.5), (60, 0.4, 1.6)])
    def test_gate_rejects_a_shifted_eigenvalue(self, monkeypatch, n, a, b):
        # an eigensolve that returns its middle eigenvalue 1e-6 off: its
        # Newton step is about 1e-6, far above the 1e-8 gate
        import scipy.linalg.lapack

        solve = scipy.linalg.lapack.dsterf

        def shifted(*args, **kwargs):
            x, info = solve(*args, **kwargs)
            x[len(x) // 2] += 1e-6
            return x, info

        monkeypatch.setattr(scipy.linalg.lapack, "dsterf", shifted)
        with pytest.raises(NumericalError, match=f"n={n}, alpha={a}, beta={b}"):
            jacobi.zeros(n, JacobiParams(a, b))

    def test_failed_eigensolve_raises(self, monkeypatch):
        # LAPACK reports an eigenvalue it could not find with info > 0
        import scipy.linalg.lapack

        solve = scipy.linalg.lapack.dsterf
        monkeypatch.setattr(scipy.linalg.lapack, "dsterf",
                            lambda *args, **kwargs: (solve(*args, **kwargs)[0], 3))
        with pytest.raises(NumericalError, match="n=60, alpha=0.4, beta=1.6: LAPACK dsterf info=3"):
            jacobi.zeros(60, JacobiParams(0.4, 1.6))

    @pytest.mark.parametrize("n,a,b", [(50, 0.0, 0.0), (114, 2.5, 7.0), (200, 0.3, 4.0),
                                       (333, 7.0, 0.5), (500, 7.0, 0.0)])
    def test_eigensolve_matches_eigh_tridiagonal(self, n, a, b):
        # zeros calls LAPACK's dsterf itself; scipy's eigh_tridiagonal, the
        # cross-check, gives the same eigenvalues bit for bit
        from scipy.linalg.lapack import dsterf

        diag, off = jacobi._recurrence_coeffs(n, a, b)
        x, info = dsterf(diag, off)
        assert info == 0
        assert np.array_equal(x, eigh_tridiagonal(diag, off, eigvals_only=True))

    @pytest.mark.parametrize("n,a,b", [(50, 0.4, 1.6), (333, 7.0, 0.5), (800, 1.0, 4.0)])
    def test_vector_polish_matches_scalar_loop(self, n, a, b):
        # the same recurrence, one eigenvalue at a time in plain floats
        diag, off = jacobi._recurrence_coeffs(n, a, b)
        eigenvalues = eigh_tridiagonal(diag, off, eigvals_only=True).tolist()
        expected = [x - scalar_newton_step(diag, off, x) for x in eigenvalues]
        assert jacobi.zeros(n, JacobiParams(a, b)).points == tuple(expected)

    def test_polish_accuracy_at_scale(self):
        # the polish under the normalised recurrence: extreme and middle
        # zeros within 2e-16 of a 40-digit Newton refinement (4.7e-15
        # unpolished at this size)
        n, params = 800, JacobiParams.from_charges(0.05, 3)
        ours = jacobi.zeros(n, params).points
        picked = list(range(8)) + list(range(n - 8, n)) + [n // 4, n // 2 - 1, n // 2, 3 * n // 4]
        with mpmath.workdps(40):
            a, b = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
            for i in picked:
                # one step: from 1e-16 the next one moves x by under 1e-27
                x = mpmath.mpf(ours[i])
                x -= (_mp_jacobi(n, a, b, x)
                      / ((n + a + b + 1) / 2 * _mp_jacobi(n - 1, a + 1, b + 1, x)))
                assert abs(x - ours[i]) <= 2e-16, (i, ours[i], x)

    def test_step_bound_reported(self):
        n, params = 60, JacobiParams(0.4, 1.6)
        z = jacobi.zeros(n, params)
        diag, off = jacobi._recurrence_coeffs(n, params.alpha, params.beta)
        steps = [scalar_newton_step(diag, off, x)
                 for x in eigh_tridiagonal(diag, off, eigvals_only=True).tolist()]
        assert isinstance(z.step_bound, float)
        assert z.step_bound == max(abs(s) for s in steps)
        assert z.step_bound < 1e-14


class TestDiscriminant:
    def test_trivial_single_point(self):
        assert jacobi.discriminant_log(1, JacobiParams(0.3, 0.9)) == 0.0

    def test_legendre_golden(self):
        # D_2 = lambda^2 (x1 - x2)^2 = (3/2)^2 (4/3) = 3
        assert rel_close(jacobi.discriminant_log(2, JacobiParams(0, 0)), math.log(3), 1e-12)
        # D_3 = (5/2)^4 * (108/125) = 33.75
        assert rel_close(jacobi.discriminant_log(3, JacobiParams(0, 0)), math.log(33.75), 1e-12)

    def test_definition_vs_product(self):
        # log of [lambda]^(2n-2) prod (x_j - x_k)^2 assembled from computed zeros
        for (n, a, b) in [(4, 0.0, 0.0), (10, 1.0, 1.0), (25, 0.4, 1.6), (40, -0.5, 2.0)]:
            params = JacobiParams(a, b)
            pts = jacobi.zeros(n, params).points
            log_v = 0.0
            for j in range(n):
                for k in range(j + 1, n):
                    log_v += 2 * math.log(abs(pts[j] - pts[k]))
            direct = (2 * n - 2) * jacobi.leading_coeff_log(n, params) + log_v
            assert rel_close(jacobi.discriminant_log(n, params), direct, 1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            jacobi.discriminant_log(0, JacobiParams(0, 0))

    def test_extended_mode_agrees(self):
        std_value = jacobi.discriminant_log(60, JacobiParams(0.4, 1.6))
        with precision_mode("ext"):
            ext_value = jacobi.discriminant_log(60, JacobiParams(0.4, 1.6))
        assert rel_close(std_value, float(ext_value), 1e-13)

    def test_large_n_finite(self):
        # k^k factors would overflow if exponentiated; log form must stay finite
        value = jacobi.discriminant_log(400, JacobiParams(1, 1))
        assert math.isfinite(value)

    @pytest.mark.parametrize("mode,rtol", [("std", 1e-14), ("ext", 1e-30)])
    @pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 1), (-0.5, 7), (0.5, 3.5),
                                            (2e8, 1), (2e12, 1)])
    def test_closed_form_vs_product(self, mode, rtol, alpha, beta):
        # the exponents 2e8 and 2e12 need the size bits of Context.exact_prec:
        # log G(alpha + 2) ~ alpha^2 log alpha cancels down to n^2 log alpha
        params = JacobiParams(alpha, beta)
        with precision_mode(mode):
            for n in (1, 2, 3, 40, 400, 2560):
                closed = jacobi.discriminant_log(n, params)
                product = discriminant_log_product(n, alpha, beta)
                assert abs(closed - product) <= rtol * max(abs(product), 1), (n, closed, product)


class TestKernelArguments:
    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_each_function_evaluates_only_its_arguments(self, mode, monkeypatch):
        # log lambda_n needs the kernel at n+1, n+s and 2n+s (s = a+b+1),
        # log P_n(1) at n+1, n+a+1 and, through the memo, a+1; log D_n at
        # all five n-dependent arguments and a+1, b+1, where equal arguments
        # (n+a+1 = n+1 at a = 0) take one call; each value as before
        kernel, calls = jacobi.log_gamma_g_fixed, []
        monkeypatch.setattr(jacobi, "log_gamma_g_fixed",
                            lambda x, prec: calls.append(x) or kernel(x, prec))
        with precision_mode(mode):
            for n, a, b in ((2, 0.5, 1.25), (40, 3.25, 0.75), (10**6, 0.125, 2.5), (40, 1.5, 1.5),
                            (40, 0.0, 1.5)):
                params = JacobiParams(a, b)
                s = a + b + 1
                for fn, args in ((jacobi.leading_coeff_log, {n + 1, n + s, 2 * n + s}),
                                 (jacobi.value_at_one_log, {n + 1, n + a + 1, a + 1}),
                                 (jacobi.discriminant_log,
                                  {n + 1, n + a + 1, n + b + 1, n + s, 2 * n + s, a + 1, b + 1})):
                    specfun.memo.cache_clear()
                    calls.clear()
                    value = fn(n, params)
                    assert len(calls) == len(args), (fn.__name__, n, a, b, calls)
                    assert {float(mpmath.mpf(x)) for x in calls} == args  # mpf tuples
                    # the mpf route that log_values_fixed replaced as the reference:
                    # evaluated at the same precision, each value rounded once more
                    ctx = active()
                    size = a + 2 if fn is jacobi.value_at_one_log else a + b + 2
                    with mpmath.workprec(ctx.exact_prec(*size.as_integer_ratio())):
                        raw = log_values_mp(n, mpmath.mpf(a) + 1, mpmath.mpf(b) + 1)
                    all_four = [ctx.real(v) for v in raw]
                    index = (jacobi.leading_coeff_log, jacobi.discriminant_log,
                             jacobi.value_at_one_log).index(fn)
                    assert value == all_four[index]
