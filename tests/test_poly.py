"""Clifford-valued polynomials with radial shifts r^s."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkldirac.dunkl import DunklContext
from dunkldirac.poly import RadialExpr, x_vector
from dunkldirac.quadrature import evaluate
from dunkldirac.reflection import symmetric
from dunkldirac.scalars import ExactScalar

from conftest import random_expr


def exprs(m):
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
    keys = st.tuples(
        st.sampled_from([Fraction(0), Fraction(2), Fraction(-1)]),
        st.tuples(*[st.integers(0, 2)] * m),
        st.integers(0, (1 << m) - 1),
    )
    return st.dictionaries(keys, coeffs, max_size=4).map(
        lambda terms: RadialExpr(m, terms))


# -- arithmetic ----------------------------------------------------------

def expr_tuples(n):
    """n expressions of one rank m in {2, 3}; m = 3 covers all of Cl(0, 3)."""
    return st.sampled_from([2, 3]).flatmap(lambda m: st.tuples(*[exprs(m)] * n))


@given(fgh=expr_tuples(3))
def test_ring_laws(fgh):
    f, g, h = fgh
    assert f.mul_expr(g + h) == f.mul_expr(g) + f.mul_expr(h)
    assert f.mul_expr(g).mul_expr(h) == f.mul_expr(g.mul_expr(h))
    assert f + g == g + f


@given(fg=expr_tuples(2))
def test_bar_reverses_products(fg):
    f, g = fg
    assert f.mul_expr(g).bar() == g.bar().mul_expr(f.bar())


def test_scale_and_neg():
    f = RadialExpr.monomial(2, (1, 0), Fraction(3), blade=0b1)
    assert f.scale(Fraction(1, 3)) + f.scale(Fraction(-1, 3)) == RadialExpr(2)
    assert -f == f.scale(-1)


def test_mul_x_and_mul_radial_commute():
    f = random_expr(__import__("random").Random(7), 3, 2)
    assert f.mul_x(2).mul_radial(-3) == f.mul_radial(-3).mul_x(2)


def test_vector_mul_left_matches_exprs_product():
    """x f computed blade-by-blade equals multiplying by sum x_i e_i."""
    import random
    f = random_expr(random.Random(11), 3, 2)
    assert f.vector_mul_left() == x_vector(3).mul_expr(f)
    assert f.vector_mul_left(r_shift=-2) == x_vector(3).mul_radial(-2).mul_expr(f)


def test_vector_squares_to_minus_r_squared():
    for m in (1, 2, 3):
        x = x_vector(m)
        expect = RadialExpr(m)
        for i in range(1, m + 1):
            expect = expect - RadialExpr.monomial(m, tuple(
                2 if j == i - 1 else 0 for j in range(m)))
        assert x.mul_expr(x) == expect


def test_blade_mul_left_and_right():
    f = RadialExpr.monomial(2, (1, 0), blade=0b1)
    # e1 * (x1 e1) = -x1 ; (x1 e1) * e2 = x1 e1e2
    assert f.blade_mul_left(0b1) == RadialExpr.monomial(2, (1, 0), Fraction(-1))
    assert f.blade_mul_right(0b10) == RadialExpr.monomial(2, (1, 0), blade=0b11)


# -- calculus ------------------------------------------------------------

def test_deriv_is_a_derivation():
    import random
    rng = random.Random(3)
    f = random_expr(rng, 2, 2)
    g = random_expr(rng, 2, 2)
    fg = f.mul_expr(g)
    assert fg.deriv(1) == f.deriv(1).mul_expr(g) + f.mul_expr(g.deriv(1))


def test_euler_is_sum_x_deriv():
    import random
    f = random_expr(random.Random(5), 3, 3)
    total = RadialExpr(3)
    for i in range(1, 4):
        total = total + f.deriv(i).mul_x(i)
    assert f.euler() == total


def test_euler_counts_radial_shifts():
    f = RadialExpr.monomial(2, (1, 1), r_exp=Fraction(-3))
    assert f.euler() == f.scale(-1)  # degree 2 - 3


def test_partial_r_on_pure_radial_power():
    f = RadialExpr.monomial(2, (0, 0), r_exp=Fraction(5, 2))
    assert f.partial_r() == RadialExpr.monomial(
        2, (0, 0), Fraction(5, 2), r_exp=Fraction(3, 2))


def test_deriv_sees_the_radial_factor():
    # d_1 (r^2) = 2 x_1
    f = RadialExpr.monomial(2, (0, 0), r_exp=2)
    assert f.deriv(1) == RadialExpr.monomial(2, (1, 0), Fraction(2))
    # d_1 (r^-2 x_1) = r^-2 - 2 x_1^2 r^-4
    g = RadialExpr.monomial(2, (1, 0), r_exp=-2)
    assert g.deriv(1) == (RadialExpr.monomial(2, (0, 0), r_exp=-2)
                          + RadialExpr.monomial(2, (2, 0), Fraction(-2), r_exp=-4))


# -- line folding (m = 1) -------------------------------------------------

def test_line_canonical_folds_even_powers():
    """On the line the normal form folds x^2 into r^2 as the term is written."""
    f = RadialExpr.monomial(1, (4,))
    assert f.terms == RadialExpr.monomial(1, (0,), r_exp=4).terms
    g = RadialExpr.monomial(1, (3,), Fraction(2), blade=0b1)
    assert g.terms == {(Fraction(2), (1,), 0b1): Fraction(2)}


def test_line_canonical_detects_hidden_cancellation():
    # x^2 - r^2 vanishes on the line; the normal form empties the term map
    f = (RadialExpr.monomial(1, (2,))
         - RadialExpr.monomial(1, (0,), r_exp=2))
    assert not f.terms and f.is_zero()


def test_line_canonical_is_identity_off_the_line():
    """Only the last variable folds: x_1^2 stays, x_2^2 becomes r^2 - x_1^2."""
    f = RadialExpr.monomial(2, (2, 0))
    assert f.terms == {(Fraction(0), (2, 0), 0): Fraction(1)}
    g = RadialExpr.monomial(2, (0, 2))
    assert g.terms == {(Fraction(2), (0, 0), 0): Fraction(1),
                       (Fraction(0), (2, 0), 0): Fraction(-1)}


# -- the normal form ------------------------------------------------------

SYM3 = DunklContext(symmetric(3, Fraction(1, 2)))
POINTS = np.array([[0.9, -0.4, 0.7], [0.3, 1.1, -0.8], [-1.2, 0.5, 0.2]])


def raw_terms(m):
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
    keys = st.tuples(
        st.sampled_from([Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2)]),
        st.tuples(*[st.integers(0, 3)] * m),
        st.integers(0, (1 << m) - 1),
    )
    return st.dictionaries(keys, coeffs, max_size=4)


def in_normal_form(f):
    return all(mono[-1] <= 1 for _s, mono, _b in f.terms)


@given(raw=raw_terms(3), other=raw_terms(3), i=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_operators_keep_the_normal_form(raw, other, i):
    f, g = RadialExpr(3, raw), RadialExpr(3, other)
    for h in (f, f.mul_expr(g), f.mul_x(i), f.vector_mul_left(), f.deriv(i),
              SYM3.dunkl(i, f)):
        assert in_normal_form(h)


@given(raw=raw_terms(3))
def test_normal_form_preserves_values(raw):
    r = np.sqrt(np.sum(POINTS * POINTS, axis=1))
    want = np.zeros((len(POINTS), 8))
    scale = np.zeros(len(POINTS))
    for (s, mono, blade), c in raw.items():
        vals = float(c) * r ** float(s) * np.prod(POINTS ** np.array(mono), axis=1)
        want[:, blade] += vals
        scale += np.abs(vals)
    got = evaluate(RadialExpr(3, raw), POINTS)
    assert np.all(np.abs(got - want) <= 1e-12 * (1 + scale)[:, None])


@given(raw=raw_terms(3))
def test_normal_form_is_unique(raw):
    f = RadialExpr(3, raw)
    total = RadialExpr(3)
    for i in range(1, 4):
        total = total + f.mul_x(i).mul_x(i)
    assert f.mul_radial(2).terms == total.terms


# -- structure queries ----------------------------------------------------

def test_homogeneous_components_partition():
    import random
    f = random_expr(random.Random(9), 2, 3)
    parts = f.homogeneous_components()
    total = RadialExpr(2)
    for weight, part in parts.items():
        assert part.euler() == part.scale(weight)
        total = total + part
    assert total == f


def test_to_json_pins_a_literal_expression():
    """The layout the basis and laguerre-table rows carry: sorted by r_exp,
    then monomial, then blade bitmask, with exact values as strings; the
    dumps compare pins the key order too."""
    f = RadialExpr(2, {
        (Fraction(-1, 2), (1, 0), 0b11): ExactScalar.power(2, Fraction(1, 2)),
        (Fraction(-1, 2), (1, 0), 0b01): Fraction(-3, 4),
        (Fraction(0), (0, 1), 0b10): Fraction(5),
    })
    assert json.dumps(f.to_json()) == json.dumps([
        {"r_exp": "-1/2", "poly": {"monomials": [
            [[1, 0], {"m": 2, "blades": [[[1], "-3/4"], [[1, 2], "(1)*2^(1/2)"]]}]]}},
        {"r_exp": "0", "poly": {"monomials": [
            [[0, 1], {"m": 2, "blades": [[[2], "5"]]}]]}},
    ])
