import math
import sys
import threading
import time

import mpmath
import pytest

from fekete import asym, cli, jacobi, precision, specfun
from fekete.exceptions import CapacityError, DomainError
from fekete.jacobi import JacobiParams
from fekete.precision import EXTENDED_DPS, active, integer_ratio, precision_mode

from _tails import elliptic_tail_fraction, potential_tail_fraction


def test_precision_mode_is_per_thread():
    params = JacobiParams(0.4, 1.6)
    inside, done = threading.Event(), threading.Event()
    seen = {}

    def extended():
        with precision_mode("ext"):
            inside.set()
            seen["ext"] = jacobi.leading_coeff_log(30, params)
            done.wait(timeout=30)

    def standard():
        inside.wait(timeout=30)
        seen["std"] = jacobi.leading_coeff_log(30, params)
        done.set()

    threads = [threading.Thread(target=extended), threading.Thread(target=standard)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert type(seen["std"]) is float
    assert isinstance(seen["ext"], mpmath.mpf)
    assert active().mode == "std"


def test_modes_stay_per_thread_under_switching():
    # more threads than cores and a short switch interval: a mode leaking
    # from one thread into another shows up as a wrong scalar type
    params = JacobiParams(0.4, 1.6)
    wrong = []

    def work(mode, kind):
        for _ in range(100):
            with precision_mode(mode):
                time.sleep(0)  # let the other threads run inside the block
                if not isinstance(jacobi.leading_coeff_log(30, params), kind):
                    wrong.append(mode)

    interval, dps = sys.getswitchinterval(), mpmath.mp.dps
    threads = [threading.Thread(target=work, args=("ext" if i % 2 else "std",
                                                    mpmath.mpf if i % 2 else float))
               for i in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        mpmath.mp.dps = dps  # overlapping ext blocks share this setting
    assert wrong == []


def test_data_filled_by_racing_modes_is_exact():
    # threads in both modes fill the kernel's fixed-point data from an empty
    # cache while their ext blocks move mpmath's one working precision; the
    # data they leave is the data a single thread builds, bit for bit
    params = JacobiParams(0.4, 1.6)
    fps = []
    for mode in ("std", "ext"):
        with precision_mode(mode):  # the fractional bits at the size a + b + 2 = 4
            fps.append(specfun.fixed_bits(active().exact_prec(4)))
    expected = [specfun._fixed_data.__wrapped__(fp) for fp in fps]

    def work(mode):
        for _ in range(10):
            with precision_mode(mode):
                time.sleep(0)
                jacobi.leading_coeff_log(30, params)

    interval, dps = sys.getswitchinterval(), mpmath.mp.dps
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            specfun._fixed_data.cache_clear()
            threads = [threading.Thread(target=work, args=("ext" if i % 2 else "std",))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert [specfun._fixed_data(fp) for fp in fps] == expected
    finally:
        sys.setswitchinterval(interval)
        mpmath.mp.dps = dps


def _exact_values() -> list:
    """Every exact function reachable from ``cli.KINDS`` at n = 2, 40 and
    10^6, each value as its bits: the float, or the mpf tuple; then the
    rows of ``cmd_coeffs``, ``cmd_table`` and ``cmd_verify`` for every kind,
    which print the expansions, their truncations and the errors, and of
    ``cmd_zeros``, which prints float64 values."""
    inputs = {"params": JacobiParams(0.4, 1.6), "p": 0.75, "q": 4.0, "a": 0.5, "b": 3.25}
    values = [getattr(value, "_mpf_", value)
              for kind in cli.KINDS.values() for n in (2, 40, 10**6)
              for value in [kind.exact(n, *(inputs[f] for f in kind.inputs))]]
    for kind in cli.KINDS:
        given = dict(kind=kind, p=0.75, q=4.0, a=0.5, b=3.25, order=3)
        values += [cli.cmd_coeffs(cli.RunConfig("coeffs", **given)),
                   cli.cmd_table(cli.RunConfig("table", values=(2, 40, 10**6), **given)),
                   cli.cmd_verify(cli.RunConfig("verify", values=(40, 80, 160), **given))]
    return values + [cli.cmd_zeros(cli.RunConfig("zeros", "zeros", (3,), p=0.7, q=1.3))]


@pytest.mark.parametrize("mode", ["std", "ext"])
def test_exact_values_ignore_mpmath_precision(mode):
    # the exact values read no working precision: under mpmath.workdps at
    # 5 or 200 digits each is the value the mode gives by itself
    with precision_mode(mode):
        expected = _exact_values()
        for dps in (5, 200):
            with mpmath.workdps(dps):
                assert _exact_values() == expected, dps


def test_exact_values_in_racing_modes():
    # threads in both modes, whose ext blocks move mpmath's one working
    # precision, each get the values a single thread gets
    expected = {}
    for mode in ("std", "ext"):
        with precision_mode(mode):
            expected[mode] = _exact_values()
    wrong = []

    def work(mode):
        for _ in range(5):
            with precision_mode(mode):
                time.sleep(0)
                if _exact_values() != expected[mode]:
                    wrong.append(mode)

    interval, dps = sys.getswitchinterval(), mpmath.mp.dps
    threads = [threading.Thread(target=work, args=("ext" if i % 2 else "std",))
               for i in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        mpmath.mp.dps = dps
    assert wrong == []


def test_use_restores_mpmath_precision():
    before = mpmath.mp.dps
    try:
        precision.use("ext")
        precision.use("ext")
        assert mpmath.mp.dps == EXTENDED_DPS
    finally:
        precision.use("std")
    assert mpmath.mp.dps == before
    assert active().mode == "std"


def test_precision_mode_overrides_the_default():
    try:
        precision.use("ext")
        with precision_mode("std"):
            assert active().mode == "std"
        assert active().mode == "ext"
    finally:
        precision.use("std")


def test_fraction_rounds_once_in_ext():
    # the tail coefficients are exact rationals whose numerators are far
    # wider than 32 digits at non-dyadic charges; each must equal the
    # 60-digit value rounded once to the ext precision
    p, q = 0.1, 0.3
    with precision_mode("ext"):
        prec = mpmath.mp.prec
        for build, coeff in ((asym.potential_energy_expansion, potential_tail_fraction),
                             (asym.elliptic_log_energy_expansion, elliptic_tail_fraction)):
            tail = build(p, q, 16).tail
            for m, value in enumerate(tail, 1):
                exact = coeff(m, p, q)
                with mpmath.workdps(60):
                    ref = mpmath.mpf(exact.numerator) / exact.denominator
                with mpmath.workprec(prec):
                    assert value == +ref, (build.__name__, m)


def test_ratio_rounds_at_the_mode_precision():
    # the context's own precision, not mpmath's working precision: 1/3 has
    # no finite binary expansion, so a wider working precision would show
    with precision_mode("ext") as ctx:
        third = ctx.ratio(1, 3)
        assert third._mpf_[1].bit_length() <= ctx.prec
        with mpmath.workprec(300):
            assert ctx.ratio(1, 3)._mpf_ == third._mpf_


@pytest.mark.parametrize("mode", ["std", "ext"])
def test_fixed_rounds_only_where_decided(mode):
    with precision_mode(mode) as ctx:
        one = 1 << 200
        # 1/3 to within 5 units of 2^-200: far from a midpoint
        assert ctx.fixed(one // 3, 200, 5) == ctx.ratio(1, 3)
        # a midpoint of the mode's precision, to within 1 unit: undecided
        half_ulp = 1 << (200 - ctx.prec)
        assert ctx.fixed(one + half_ulp, 200, 1) is None
        assert ctx.fixed(one + half_ulp + 4 * half_ulp // 3, 200, 1) == ctx.ratio(
            one + half_ulp + 4 * half_ulp // 3, one)
        # fewer bits than the precision: undecided
        assert ctx.fixed(3, 1, 1) is None
    with precision_mode("std") as ctx:
        # the subnormal ulp, 2^-1074, and float64's range
        assert ctx.fixed(3 << 1030, 2100, 1) == 3 * 2.0 ** -1070
        with pytest.raises(CapacityError):
            ctx.fixed(1 << 1100, 10, 1)


def test_distance_rounds_at_the_mode_precision():
    # |x - y| rounded once at the context's precision, whatever mpmath's is
    with precision_mode("ext") as ctx:
        x, y = ctx.ratio(1, 3), ctx.ratio(-1, 7)
        with mpmath.workprec(ctx.prec):
            expected = abs(x - y)
        for dps in (5, 200):
            with mpmath.workdps(dps):
                assert ctx.distance(y, x)._mpf_ == expected._mpf_


def test_integer_ratio_rejects_non_finite_and_other_types():
    for x in (math.inf, -math.inf, math.nan, mpmath.inf, mpmath.nan):
        with pytest.raises(DomainError, match="non-finite"):
            integer_ratio(x)
    for x in ("1", 1j, None):
        with pytest.raises(TypeError, match="no exact rational conversion"):
            integer_ratio(x)
    # past the float64 range an mpf is still finite, and exact
    assert integer_ratio(mpmath.mpf(2) ** 2000) == (2 ** 2000, 1)
