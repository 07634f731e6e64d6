"""Exact scalar ring: canonicalization, arithmetic laws, rational powers."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from dunkldirac.scalars import ExactScalar, rational_power


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
exponents = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
bases = st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)])


def scalars(base):
    return st.dictionaries(exponents, fractions, max_size=3).map(
        lambda terms: ExactScalar(base, terms))


# -- rational_power -----------------------------------------------------

def test_rational_power_exact_cases():
    assert rational_power(Fraction(4), Fraction(1, 2)) == 2
    assert rational_power(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    assert rational_power(Fraction(5), Fraction(-2)) == Fraction(1, 25)
    assert rational_power(Fraction(-8), Fraction(1, 3)) == -2
    assert rational_power(Fraction(-8), Fraction(2, 3)) == 4


def test_rational_power_irrational_is_none():
    assert rational_power(Fraction(2), Fraction(1, 2)) is None
    assert rational_power(Fraction(3, 2), Fraction(1, 3)) is None


def test_rational_power_rejects_even_root_of_negative():
    with pytest.raises(ValueError):
        rational_power(Fraction(-2), Fraction(1, 2))


@given(base=st.integers(2, 20), n=st.integers(-4, 4), d=st.integers(1, 4))
def test_rational_power_agrees_with_float(base, n, d):
    """Whenever the value folds to a Fraction it matches the float power."""
    exp = Fraction(n, d)
    value = rational_power(Fraction(base), exp)
    if value is not None:
        assert float(value) == pytest.approx(float(base) ** float(exp))


# -- canonical form -----------------------------------------------------

def test_rational_exponents_fold_to_constant():
    s = ExactScalar.power(4, Fraction(3, 2))
    assert s.terms == {(0, 0, (), ()): 8}


def test_whole_exponent_part_moves_into_coefficient():
    # 2^(-5/4) * 1/2  ==  2^(-1/4) * 1/4, both stored with exponent 3/4
    left = ExactScalar.power(2, Fraction(-5, 4), Fraction(1, 2))
    right = ExactScalar.power(2, Fraction(-1, 4), Fraction(1, 4))
    assert left == right
    assert set(left.terms) == {(0, Fraction(3, 4), (), ())}


@given(base=st.sampled_from([Fraction(9), Fraction(1, 9), Fraction(8, 27), Fraction(4),
                             Fraction(16, 81), Fraction(-27)]),
       q1=st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 5, 9])),
       q2=st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 5, 9])))
@example(base=Fraction(9), q1=Fraction(1, 2), q2=Fraction(1, 4))
def test_powers_of_a_perfect_power_base_have_one_form(base, q1, q2):
    """9^(1/2) 9^(1/4) and 9^(3/4) are the same number, 3 * 9^(1/4): a power
    of the base is written over the base's largest root, so however a value
    was reached it has one key, and the key is the value's own exponent."""
    x = ExactScalar.power(base, q1) * ExactScalar.power(base, q2)
    q = q1 + q2
    assert x.terms == ExactScalar.power(base, q).terms
    sign = -1 if base < 0 and q.numerator % 2 else 1
    assert float(x) == pytest.approx(sign * abs(float(base)) ** float(q))


def test_zero_coefficients_are_dropped():
    s = ExactScalar(2, {Fraction(1, 2): Fraction(0)})
    assert not s
    assert s == 0


def test_exact_cancellation_empties_the_term_map():
    s = ExactScalar.power(2, Fraction(1, 2))
    assert not (s - s).terms


# -- ring laws ----------------------------------------------------------

@given(base=bases, data=st.data())
def test_addition_commutes(base, data):
    x = data.draw(scalars(base))
    y = data.draw(scalars(base))
    assert x + y == y + x


@given(base=bases, data=st.data())
def test_multiplication_commutes(base, data):
    x = data.draw(scalars(base))
    y = data.draw(scalars(base))
    assert x * y == y * x


@given(base=bases, data=st.data(), q=fractions)
def test_shortcut_results_are_canonical(base, data, q):
    """Rational scaling, sums and negation skip the folding in __init__; what
    they return must be what __init__ builds from the same terms."""
    x = data.draw(scalars(base))
    y = data.draw(scalars(base))
    for got in (x * q, q * x, x * q.numerator, x + y, x + q, -x):
        assert got.terms == ExactScalar(base, got.terms).terms
    assert (q * x).terms == ExactScalar(base, {e: c * q for e, c in x.terms.items()}).terms
    assert not (x * 0).terms


@given(base=bases, data=st.data())
def test_multiplication_distributes(base, data):
    x = data.draw(scalars(base))
    y = data.draw(scalars(base))
    z = data.draw(scalars(base))
    assert x * (y + z) == x * y + x * z


@given(base=bases, data=st.data())
def test_associativity(base, data):
    x = data.draw(scalars(base))
    y = data.draw(scalars(base))
    z = data.draw(scalars(base))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


def term_magnitude(s: ExactScalar) -> float:
    """Sum of |c_q base^q| over the terms of s, the scale of its float error."""
    return sum(abs(float(ExactScalar(s.base, {key: c}))) for key, c in s.terms.items())


@given(pair=bases.flatmap(lambda base: st.tuples(scalars(base), scalars(base))))
@example(pair=(ExactScalar(3, {6: 2, 0: 1}), ExactScalar(3, {8: 1, -1: 1})))
def test_numeric_tracks_exact_arithmetic(pair):
    """float() of an exact result agrees with float arithmetic to the rounding
    error of a few operations on each term: a small multiple of machine
    epsilon times the term magnitudes of the operands.  The pinned example is
    1459 * 19684/3, near 9.6e6, where one ulp already exceeds 1e-9."""
    x, y = pair
    eps = 16 * sys.float_info.epsilon
    mx, my = term_magnitude(x), term_magnitude(y)
    assert abs(float(x * y) - float(x) * float(y)) <= eps * mx * my
    assert abs(float(x + y) - (float(x) + float(y))) <= eps * (mx + my)


# -- mixed arithmetic ---------------------------------------------------

def test_fraction_and_int_interoperate():
    s = ExactScalar.power(2, Fraction(1, 2))
    assert s + 0 == s
    assert 3 * s == s + s + s
    assert s - Fraction(1, 2) + Fraction(1, 2) == s


def test_mixed_bases_interoperate_through_rationals():
    two = ExactScalar.power(4, Fraction(1, 2))  # folds to the rational 2
    other = ExactScalar.power(3, Fraction(1, 2))
    assert two + other == other + 2


def test_mixed_irrational_bases_raise():
    with pytest.raises(ValueError):
        ExactScalar.power(3, Fraction(1, 2)) + ExactScalar.power(5, Fraction(1, 2))


def test_float_of_negative_base_with_odd_denominator():
    s = ExactScalar.power(-8, Fraction(1, 3))
    assert float(s) == pytest.approx(-2.0)
    t = ExactScalar.power(-2, Fraction(2, 3))
    assert float(t) == pytest.approx(2.0 ** (2 / 3))
