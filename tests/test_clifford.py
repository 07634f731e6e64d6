"""Clifford algebra Cl(0, m): blade products, the bar anti-involution."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dunkldirac.clifford import (
    Multivector,
    bar_sign,
    blade_from_indices,
    blade_indices,
    blade_product,
)


def product_by_index_moving(a: int, b: int) -> tuple[int, int]:
    """Multiply e_A e_B by literally sorting the concatenated index list.

    Adjacent swaps of distinct generators cost a sign each; an adjacent
    equal pair contracts to -1.  Slow and obviously correct.
    """
    seq = list(blade_indices(a)) + list(blade_indices(b))
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                del seq[i:i + 2]
                sign = -sign
                changed = True
                break
    blade = 0
    for i in seq:
        blade |= 1 << (i - 1)
    return sign, blade


blades4 = st.integers(0, 15)


@given(a=blades4, b=blades4)
def test_blade_product_matches_index_moving(a, b):
    assert blade_product(a, b) == product_by_index_moving(a, b)


@given(a=blades4, b=blades4, c=blades4)
def test_blade_product_is_associative(a, b, c):
    s1, ab = blade_product(a, b)
    s2, ab_c = blade_product(ab, c)
    t1, bc = blade_product(b, c)
    t2, a_bc = blade_product(a, bc)
    assert (s1 * s2, ab_c) == (t1 * t2, a_bc)


def test_generators_square_to_minus_one():
    for m in (1, 2, 3, 4):
        for i in range(1, m + 1):
            e = Multivector.basis_vector(m, i)
            assert e * e == Multivector.scalar(m, -1)


def test_generators_anticommute():
    m = 4
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            ei = Multivector.basis_vector(m, i)
            ej = Multivector.basis_vector(m, j)
            assert (ei * ej + ej * ei).is_zero()


def test_blade_from_indices_tracks_reordering():
    assert blade_from_indices([2, 1]) == (-1, 0b11)
    assert blade_from_indices([1, 2, 1]) == (1, 0b10)  # e1 e2 e1 = e2
    assert blade_from_indices([3, 3]) == (-1, 0)


def test_bar_flips_each_generator():
    m = 3
    for i in range(1, m + 1):
        e = Multivector.basis_vector(m, i)
        assert e.bar() == -e
    assert Multivector.scalar(m, 5).bar() == Multivector.scalar(m, 5)


def test_bar_sign_follows_grade():
    # grades 0,1,2,3 pick up +,-,-,+
    assert [bar_sign(b) for b in (0, 0b1, 0b11, 0b111)] == [1, -1, -1, 1]


def multivectors(m):
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.dictionaries(st.integers(0, (1 << m) - 1), coeffs, max_size=4).map(
        lambda comps: Multivector(m, comps))


@given(x=multivectors(3), y=multivectors(3))
def test_bar_reverses_products(x, y):
    assert (x * y).bar() == y.bar() * x.bar()


@given(x=multivectors(3), y=multivectors(3), z=multivectors(3))
def test_multivector_ring_laws(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@given(x=multivectors(3))
def test_bar_is_an_involution(x):
    assert x.bar().bar() == x


def test_vector_times_its_bar_is_the_squared_norm():
    m = 3
    x = sum((Multivector.basis_vector(m, i) * Fraction(i)
             for i in range(1, m + 1)), Multivector(m))
    assert x.bar() * x == Multivector.scalar(m, 1 + 4 + 9)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Multivector.basis_vector(2, 1) * Multivector.basis_vector(3, 1)
    with pytest.raises(ValueError):
        Multivector(1, {0b10: Fraction(1)})


def test_json_roundtrip():
    x = Multivector(3, {0: Fraction(1, 2), 0b101: Fraction(-3)})
    assert Multivector.from_json(x.to_json()) == x
