"""Clifford algebra Cl(0, m): blade products, the bar anti-involution.

A Clifford element is a constant RadialExpr, one term per blade, so the
algebra laws here run through the same mul_expr and bar as every suite.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dunkldirac.clifford import bar_sign, blade_indices, blade_product
from dunkldirac.poly import RadialExpr


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


def generator(m: int, i: int, coeff=1) -> RadialExpr:
    """coeff * e_i as a constant expression."""
    return RadialExpr.monomial(m, (0,) * m, coeff, blade=1 << (i - 1))


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
            e = generator(m, i)
            assert e * e == RadialExpr.scalar(m, -1)


def test_generators_anticommute():
    m = 4
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            ei, ej = generator(m, i), generator(m, j)
            assert (ei * ej + ej * ei).is_zero()


def test_bar_flips_each_generator():
    m = 3
    for i in range(1, m + 1):
        e = generator(m, i)
        assert e.bar() == -e
    assert RadialExpr.scalar(m, 5).bar() == RadialExpr.scalar(m, 5)


@given(st.dictionaries(st.integers(0, 7),
                       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                       max_size=4))
def test_bar_is_an_involution(comps):
    x = RadialExpr(3, {(0, (0, 0, 0), blade): c for blade, c in comps.items()})
    assert x.bar().bar() == x


def test_bar_sign_follows_grade():
    # grades 0,1,2,3 pick up +,-,-,+
    assert [bar_sign(b) for b in (0, 0b1, 0b11, 0b111)] == [1, -1, -1, 1]


def test_vector_times_its_bar_is_the_squared_norm():
    m = 3
    x = RadialExpr(m)
    for i in range(1, m + 1):
        x = x + generator(m, i, i)
    assert x.bar() * x == RadialExpr.scalar(m, 1 + 4 + 9)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        generator(2, 1) * generator(3, 1)
