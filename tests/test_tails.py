"""The tail coefficients of every expansion, from integer numerators, against
the Fraction formulas of ``_tails`` rounded once by an independent route."""
import functools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from fekete import CapacityError, asym
from fekete.jacobi import JacobiParams
from fekete.precision import active, precision_mode

from _tails import (discriminant_tail_fraction, elliptic_tail_fraction, interval_tail_fraction,
                    lambda_tail_fraction, potential_tail_fraction, value_at_one_tail_fraction)


def _exponents(p, q):
    params = JacobiParams.from_charges(p, q)
    return params.alpha, params.beta


#: kind: (build(order, p, q), reference c_m(m, p, q)); the Jacobi kinds take
#: the float exponents alpha = 2p - 1, beta = 2q - 1 that their builders see
TAIL_KINDS = {
    "lambda": (lambda order, p, q: asym.leading_coeff_expansion(JacobiParams.from_charges(p, q),
                                                                order),
               lambda m, p, q: lambda_tail_fraction(m, *_exponents(p, q))),
    "p1": (lambda order, p, q: asym.value_at_one_expansion(JacobiParams.from_charges(p, q), order),
           lambda m, p, q: value_at_one_tail_fraction(m, _exponents(p, q)[0])),
    "disc": (lambda order, p, q: asym.discriminant_expansion(JacobiParams.from_charges(p, q),
                                                             order),
             lambda m, p, q: discriminant_tail_fraction(m, *_exponents(p, q))),
    "potential": (lambda order, p, q: asym.potential_energy_expansion(p, q, order),
                  potential_tail_fraction),
    "elliptic": (lambda order, p, q: asym.elliptic_log_energy_expansion(p, q, order),
                 elliptic_tail_fraction),
    "interval": (lambda order, p, q: asym.interval_energy_expansion(order),
                 lambda m, p, q: interval_tail_fraction(m)),
    "general-interval": (lambda order, p, q: asym.general_interval_energy_expansion(-p, q, order),
                         lambda m, p, q: interval_tail_fraction(m)),
}
#: the kinds defined for every positive charge, also 1e-300, where the
#: Jacobi exponent 2p - 1 rounds to -1
CHARGE_KINDS = ("potential", "elliptic", "interval", "general-interval")

#: the endpoint charges 3/4, 1, ..., 4 of the benchmark (its 22 excluded
#: verify pairs among them) and three more, as in test_asym
CHARGE_GRID = [0.75 + 0.25 * k for k in range(14)] + [0.3, 0.55, 7.1]
#: non-dyadic, tiny, large and mixed charges, checked at every order
SPECIAL_CHARGES = [(0.1, 0.3), (0.3, 0.1), (1e6, 1e6), (1e6, 0.3), (1.25, 2.75), (0.85, 1.15)]
TINY_CHARGES = [(1e-300, 0.5), (1e-300, 1e-300), (0.1, 1e-300), (1e-300, 1e6)]


@functools.lru_cache(maxsize=None)
def _reference(kind, m, p, q) -> Fraction:
    return TAIL_KINDS[kind][1](m, p, q)


def _round_reference(x: Fraction):
    """x rounded once without Context: Fraction's own float conversion in
    std, ``mpmath.libmp.from_rational`` at the ext precision."""
    if active().mode == "std":
        return float(x)
    return mpmath.mp.make_mpf(from_rational(x.numerator, x.denominator, mpmath.mp.prec,
                                            round_nearest))


def _bits(x):
    return x.hex() if isinstance(x, float) else x._mpf_


def assert_tail_matches(kind, order, p, q):
    tail = TAIL_KINDS[kind][0](order, p, q).tail
    assert len(tail) == order
    for m, value in enumerate(tail, 1):
        expected = _round_reference(_reference(kind, m, p, q))
        assert _bits(value) == _bits(expected), (kind, order, p, q, m, value, expected)


@pytest.mark.parametrize("mode", ["std", "ext"])
class TestTailsMatchReference:
    def test_charge_grid_at_the_mode_maximum(self, mode):
        with precision_mode(mode):
            order = asym.max_order()
            for kind in TAIL_KINDS:
                for p in CHARGE_GRID:
                    for q in CHARGE_GRID:
                        assert_tail_matches(kind, order, p, q)

    def test_every_order_at_special_charges(self, mode):
        with precision_mode(mode):
            for order in range(1, asym.max_order() + 1):
                for kind in TAIL_KINDS:
                    for p, q in SPECIAL_CHARGES:
                        assert_tail_matches(kind, order, p, q)
                for kind in CHARGE_KINDS:
                    for p, q in TINY_CHARGES:
                        assert_tail_matches(kind, order, p, q)


_dyadic = st.builds(lambda k, e: k / 2 ** e, st.integers(1, 2 ** 20), st.integers(0, 24))
_charges = st.one_of(_dyadic, st.floats(min_value=1e-3, max_value=50.0))


@given(kind=st.sampled_from(sorted(TAIL_KINDS)), mode=st.sampled_from(["std", "ext"]),
       p=_charges, q=_charges, data=st.data())
@example(kind="disc", mode="ext", p=0.1, q=0.7, data=None)
@settings(max_examples=150, deadline=None)
def test_tails_match_reference_at_any_charges(kind, mode, p, q, data):
    with precision_mode(mode):
        top = asym.max_order()
        order = top if data is None else data.draw(st.integers(1, top), label="order")
        assert_tail_matches(kind, order, p, q)


@pytest.mark.parametrize("kind", CHARGE_KINDS[:2])
def test_tails_at_mpf_charges(kind):
    # charges of 81 significant bits, exact as ext mpfs but not as floats:
    # the tail is the reference's at those exact rationals
    p, q = Fraction(2 ** 80 + 1, 2 ** 81), Fraction(3 * 2 ** 79 - 1, 2 ** 80)
    build, reference = TAIL_KINDS[kind]
    with precision_mode("ext"):
        order = asym.max_order()
        tail = build(order, mpmath.mpf(p.numerator) / p.denominator,
                     mpmath.mpf(q.numerator) / q.denominator).tail
        for m, value in enumerate(tail, 1):
            assert _bits(value) == _bits(_round_reference(reference(m, p, q))), (kind, m)


@pytest.mark.parametrize("mode", ["std", "ext"])
def test_no_fraction_arithmetic_in_the_tails(mode, monkeypatch):
    # the Bernoulli tables are built first; the builders then read Fraction
    # numerators and denominators but never add, multiply or divide one
    asym.interval_energy_expansion(1)

    def forbidden(*_):
        raise AssertionError("Fraction arithmetic in a tail")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    with precision_mode(mode):
        order = asym.max_order()
        for build, _ in TAIL_KINDS.values():
            build(order, 0.1, 0.3)


class TestContextRatio:
    """Context.ratio rounds num/den once, as float(Fraction) and
    from_rational do, whatever the terms."""

    @staticmethod
    def _cases():
        rng = random.Random(17)
        prec = 110
        cases = [(0, 1), (0, 3 << 500), (1, 3), (-1, 3), (2 ** 200, 2 ** 3000), (-7, 2 ** 1075),
                 # exact ties at 53 and at 110 bits, both ways round
                 ((2 ** 53 + 1) * 3, 3 * 2), ((2 ** 53 + 3) * 5, 5 * 2),
                 ((2 ** prec + 1) * 7, 7 * 2 ** 40), (-(2 ** prec + 3) * 9, 9 * 2 ** 41)]
        for _ in range(3000):
            num = rng.randrange(-10 ** rng.randrange(1, 90), 10 ** rng.randrange(1, 90))
            den = rng.randrange(1, 10 ** rng.randrange(1, 90))
            cases.append((num << rng.randrange(0, 2000), den << rng.randrange(0, 2000)))
        return cases

    @pytest.mark.parametrize("mode", ["std", "ext"])
    def test_against_fraction_and_from_rational(self, mode):
        with precision_mode(mode):
            ctx = active()
            for num, den in self._cases():
                try:
                    expected = _round_reference(Fraction(num, den))
                except OverflowError:  # past the float64 range, in std
                    with pytest.raises(CapacityError, match="not finite in std precision"):
                        ctx.ratio(num, den)
                    continue
                assert _bits(ctx.ratio(num, den)) == _bits(expected), (num, den)
