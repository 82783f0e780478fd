"""Exact-rational tail coefficients in Fraction arithmetic: the readable
formulas, the independent reference of the integer-numerator tails of
:mod:`fekete.asym` and of :func:`fekete.specfun.hurwitz_zeta_negint_numerators`."""
from __future__ import annotations

from fractions import Fraction

from fekete.exceptions import check_size
from fekete.precision import integer_ratio
from fekete.specfun import _bernoulli_row, bernoulli_number, hurwitz_zeta_negint_numerators

_ONE = Fraction(1)


def as_fraction(x) -> Fraction:
    """Exact rational value of ``x`` (int, float, Fraction or mpf)."""
    return x if isinstance(x, Fraction) else Fraction(*integer_ratio(x))


def bernoulli_poly_fraction(m: int, x: Fraction) -> Fraction:
    """Exact rational B_m(x).

    With x = r/s, the homogeneous Horner sum sum_k A_k r^k s^(m-k) of the
    integer row runs in integers; one division by L_m s^m at the end."""
    m = check_size(m, "m", 0)
    den, coeffs = _bernoulli_row(m)
    r, s = x.numerator, x.denominator
    acc, s_pow = coeffs[m], 1
    for k in range(m - 1, -1, -1):
        s_pow *= s
        acc = acc * r + coeffs[k] * s_pow
    return Fraction(acc, den * s_pow)


def hurwitz_zeta_negint_fraction(m: int, a: Fraction) -> Fraction:
    """Exact zeta(-m, a) = -B_{m+1}(a)/(m+1) for m >= 0."""
    m = check_size(m, "m", 0)
    return -bernoulli_poly_fraction(m + 1, a) / (m + 1)


_zeta = hurwitz_zeta_negint_fraction


def _half_pow(m: int) -> Fraction:
    """1 - 2^(-m)."""
    return _ONE - Fraction(1, 2 ** m)


def lambda_tail_fraction(m: int, alpha, beta) -> Fraction:
    """c_m of log lambda_n: (-1)^(m-1)/m [(1-2^-m) zeta(-m, a+b+1) + zeta(-m)]."""
    ab1 = as_fraction(alpha) + as_fraction(beta) + 1
    value = (_half_pow(m) * _zeta(m, ab1) + _zeta(m, _ONE)) / m
    return value if m % 2 else -value


def value_at_one_tail_fraction(m: int, alpha) -> Fraction:
    """c_m of log P_n(1): (-1)^m/m [zeta(-m, alpha+1) - zeta(-m)]."""
    a1 = as_fraction(alpha) + 1
    value = (_zeta(m, a1) - _zeta(m, _ONE)) / m
    return -value if m % 2 else value


def discriminant_psi_fraction(m: int, alpha, beta) -> Fraction:
    """The bracket Psi_m(alpha, beta) of the discriminant expansion."""
    a1 = as_fraction(alpha) + 1
    b1 = as_fraction(beta) + 1
    ab1 = a1 + b1 - 1
    half = _half_pow(m)
    value = -Fraction(2 * m + 1, m + 1) * _zeta(m + 1, _ONE) - 2 * _zeta(m, _ONE)
    value += a1 * _zeta(m, a1) - _zeta(m + 1, a1) / (m + 1)
    value += b1 * _zeta(m, b1) - _zeta(m + 1, b1) / (m + 1)
    value -= ((2 - Fraction(1, 2 ** m)) * m + half) / (m + 1) * _zeta(m + 1, ab1)
    value += (ab1 - 1) * half * _zeta(m, ab1)
    return value


def discriminant_tail_fraction(m: int, alpha, beta) -> Fraction:
    """c_m of log D_n: (-1)^(m-1)/m * Psi_m(alpha, beta)."""
    value = discriminant_psi_fraction(m, alpha, beta) / m
    return value if m % 2 else -value


def potential_h_fraction(m: int, p, q) -> Fraction:
    """H_m(p, q) = zeta(-m-1) + zeta(-m-1, 2p) + zeta(-m-1, 2q)
    + (1 - 2^-m) zeta(-m-1, 2p+2q-1)."""
    p = as_fraction(p)
    q = as_fraction(q)
    return (
        _zeta(m + 1, _ONE)
        + _zeta(m + 1, 2 * p)
        + _zeta(m + 1, 2 * q)
        + _half_pow(m) * _zeta(m + 1, 2 * p + 2 * q - 1)
    )


def potential_tail_fraction(m: int, p, q) -> Fraction:
    """c_m of the potential energy: (-1)^(m-1)/(m(m+1)) H_m(p, q)."""
    value = potential_h_fraction(m, p, q) / (m * (m + 1))
    return value if m % 2 else -value


def elliptic_h_fraction(m: int, p, q) -> Fraction:
    """H'_m(p, q) of the elliptic-configuration logarithmic energy."""
    p = as_fraction(p)
    q = as_fraction(q)
    half = _half_pow(m)
    value = potential_h_fraction(m, p, q) / (m + 1)
    value -= 2 * p * _zeta(m, 2 * p)
    value -= 2 * q * _zeta(m, 2 * q)
    value -= 2 * half * (p + q) * _zeta(m, 2 * p + 2 * q - 1)
    return value


def elliptic_tail_fraction(m: int, p, q) -> Fraction:
    """c_m of the elliptic logarithmic energy: (-1)^(m-1)/m H'_m(p, q)."""
    value = elliptic_h_fraction(m, p, q) / m
    return value if m % 2 else -value


def interval_tail_fraction(m: int) -> Fraction:
    """c_m of the interval energy:
    [1 - 2^-m + 4 (1 - 2^-(m+2)) B_{m+2}/(m+2)] / (m(m+1))."""
    bracket = _half_pow(m) + 4 * _half_pow(m + 2) * bernoulli_number(m + 2) / (m + 2)
    return bracket / (m * (m + 1))


# -- the integer numerators of fekete, read back as Fractions ----------------


def exact_tail(coeffs) -> list[Fraction]:
    """The (num, den) pairs of an ``asym`` tail generator as Fractions."""
    return [Fraction(num, den) for num, den in coeffs]


def zeta_from_numerators(m: int, a: Fraction) -> Fraction:
    """zeta(-m, a) from :func:`fekete.specfun.hurwitz_zeta_negint_numerators`."""
    top = m + 1
    num, den = hurwitz_zeta_negint_numerators(a.numerator, a.denominator, top)[m]
    return Fraction(num, den * a.denominator ** top)


def bernoulli_poly_from_numerators(m: int, x: Fraction) -> Fraction:
    """B_m(x) = -m zeta(1 - m, x) (m >= 1) from the same numerators; B_0 = 1."""
    return Fraction(1) if m == 0 else -m * zeta_from_numerators(m - 1, x)
