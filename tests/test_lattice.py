"""Radial exponents as int numerators over one lattice per expression.

Every operator is held against a small reference written here, which keys
its terms by ``Fraction`` exponents and folds x_m^2 = r^2 - x_1^2 - ... -
x_{m-1}^2 one square at a time, on inputs whose exponents have denominators
1 to 7, so that operands and shifts sit on different lattices.
"""

import json
import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from dunkldirac.clifford import bar_sign, blade_product
from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.reflection import symmetric, z2_power

from conftest import random_expr


# -- the Fraction-keyed reference -------------------------------------------

def ref_add(terms: dict, s, mono: tuple, blade: int, c):
    """terms += c r^s x^mono e_blade, folding the last variable's squares."""
    if mono[-1] >= 2:
        low = mono[:-1] + (mono[-1] - 2,)
        ref_add(terms, s + 2, low, blade, c)
        for i in range(len(mono) - 1):
            ref_add(terms, s, low[:i] + (low[i] + 2,) + low[i + 1:], blade, -c)
        return
    key = (Fraction(s), mono, blade)
    val = terms.get(key, 0) + c
    if val:
        terms[key] = val
    else:
        terms.pop(key, None)


def ref(raw: dict) -> dict:
    out: dict = {}
    for (s, mono, blade), c in raw.items():
        ref_add(out, s, tuple(mono), blade, c)
    return out


def ref_map(terms: dict, fn) -> dict:
    """Sum of fn(s, mono, blade, c) -> [(s, mono, blade, c), ...] over terms."""
    out: dict = {}
    for (s, mono, blade), c in terms.items():
        for s2, mono2, blade2, c2 in fn(s, mono, blade, c):
            ref_add(out, s2, mono2, blade2, c2)
    return out


def bump(mono, i, by=1):
    return mono[:i] + (mono[i] + by,) + mono[i + 1:]


def ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (s1, m1, b1), c1 in f.items():
        for (s2, m2, b2), c2 in g.items():
            sign, b = blade_product(b1, b2)
            ref_add(out, s1 + s2, tuple(x + y for x, y in zip(m1, m2)), b, sign * c1 * c2)
    return out


def ref_sum(f: dict, g: dict, sign=1) -> dict:
    out = dict(f)
    for (s, mono, blade), c in g.items():
        ref_add(out, s, mono, blade, sign * c)
    return out


def ref_deriv(i):
    def fn(s, mono, blade, c):
        out = [(s - 2, bump(mono, i), blade, c * s)] if s else []
        if mono[i]:
            out.append((s, bump(mono, i, -1), blade, c * mono[i]))
        return out
    return fn


def ref_vector(shift, m):
    def fn(s, mono, blade, c):
        return [(s + shift, bump(mono, i), blade_product(1 << i, blade)[1],
                 blade_product(1 << i, blade)[0] * c) for i in range(m)]
    return fn


def degree(s, mono):
    return s + sum(mono)


def as_dict(f: RadialExpr) -> dict:
    return dict(f.rational_terms())


# -- strategies -------------------------------------------------------------

exponents = st.builds(Fraction, st.integers(-14, 14), st.integers(1, 7))
coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)).filter(bool)


def raw_terms(m):
    keys = st.tuples(exponents, st.tuples(*[st.integers(0, 3)] * m),
                     st.integers(0, (1 << m) - 1))
    return st.dictionaries(keys, coeffs, max_size=4)


@st.composite
def cases(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    return m, draw(raw_terms(m)), draw(raw_terms(m))


@given(case=cases(), ds=exponents, scale=coeffs, i=st.integers(0, 2),
       blade=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_operators_agree_with_a_fraction_keyed_reference(case, ds, scale, i, blade):
    m, raw_f, raw_g = case
    i, blade = i % m, blade % (1 << m)
    f, g = RadialExpr(m, raw_f), RadialExpr(m, raw_g)
    rf, rg = ref(raw_f), ref(raw_g)
    assert as_dict(f) == rf and as_dict(g) == rg
    assert as_dict(f + g) == ref_sum(rf, rg)
    assert as_dict(f - g) == ref_sum(rf, rg, -1)
    assert as_dict(f.scale(scale)) == {k: c * scale for k, c in rf.items()}
    assert as_dict(f.mul_expr(g)) == ref_mul(rf, rg)
    assert as_dict(f.mul_radial(ds)) == {(s + ds, mo, b): c for (s, mo, b), c in rf.items()}
    assert as_dict(f.mul_x(i + 1)) == ref_map(
        rf, lambda s, mo, b, c: [(s, bump(mo, i), b, c)])
    assert as_dict(f.vector_mul_left(ds)) == ref_map(rf, ref_vector(ds, m))
    assert as_dict(f.deriv(i + 1)) == ref_map(rf, ref_deriv(i))
    assert as_dict(f.euler()) == ref_map(
        rf, lambda s, mo, b, c: [(s, mo, b, c * degree(s, mo))])
    assert as_dict(f.partial_r()) == ref_map(
        rf, lambda s, mo, b, c: [(s - 1, mo, b, c * degree(s, mo))])
    assert as_dict(f.bar()) == {(s, mo, b): bar_sign(b) * c for (s, mo, b), c in rf.items()}
    assert as_dict(f.blade_mul_left(blade)) == ref_map(rf, lambda s, mo, b, c: [
        (s, mo, blade_product(blade, b)[1], blade_product(blade, b)[0] * c)])
    assert as_dict(f.blade_mul_right(blade)) == ref_map(rf, lambda s, mo, b, c: [
        (s, mo, blade_product(b, blade)[1], blade_product(b, blade)[0] * c)])
    parts: dict = {}
    for (s, mo, b), c in rf.items():
        parts.setdefault(degree(s, mo), {})[(s, mo, b)] = c
    assert {h: as_dict(p) for h, p in f.homogeneous_components().items()} == parts
    # equality is a dict compare on the common lattice, and sees no lattice
    assert (f == g) == (rf == rg)
    assert f.mul_radial(ds).mul_radial(-ds) == f


# -- equal expressions on different lattices ----------------------------------

def test_equal_expressions_on_lattices_3_and_6_compare_equal():
    f = random_expr(random.Random(31), 3, 3)
    sixth = f.mul_radial(Fraction(1, 3)).mul_radial(Fraction(1, 6))
    half = f.mul_radial(Fraction(1, 2))
    assert (sixth.den, half.den) == (6, 2)
    assert sixth == half and half == sixth
    assert sixth - half == RadialExpr(3) and (sixth - half).is_zero()
    assert sixth != half.mul_radial(Fraction(1, 6))
    third = f.mul_radial(Fraction(2, 3))
    assert third.den == 3
    assert third == third.mul_radial(Fraction(1, 6)).mul_radial(Fraction(-1, 6))


def test_a_round_trip_through_minus_one_half_returns_the_expression():
    f = random_expr(random.Random(32), 2, 3)
    back = f.mul_radial(Fraction(-1, 2)).mul_radial(Fraction(1, 2))
    assert (f.den, back.den) == (1, 2)
    assert back == f and list(back.rational_terms()) == list(f.rational_terms())
    assert back.to_text() == f.to_text() and back.to_json() == f.to_json()


# -- output bytes ---------------------------------------------------------------

GOLDEN = RadialExpr(2, {
    (Fraction(-5, 6), (1, 0), 0b01): Fraction(3, 4),
    (Fraction(0), (0, 1), 0b11): Fraction(-2),
    (Fraction(2), (2, 0), 0): Fraction(1, 7),
    (Fraction(7, 3), (0, 0), 0b10): Fraction(5),
})


def test_to_text_and_to_json_pin_rational_exponents():
    want_text = "r^(-5/6)*x1*e1*(3/4) + x2*e1e2*(-2) + r^(2)*x1^2*(1/7) + r^(7/3)*e2*(5)"
    want_json = (
        '[{"r_exp": "-5/6", "poly": {"monomials": [[[1, 0], {"m": 2, "blades": '
        '[[[1], "3/4"]]}]]}}, {"r_exp": "0", "poly": {"monomials": [[[0, 1], '
        '{"m": 2, "blades": [[[1, 2], "-2"]]}]]}}, {"r_exp": "2", "poly": '
        '{"monomials": [[[2, 0], {"m": 2, "blades": [[[], "1/7"]]}]]}}, '
        '{"r_exp": "7/3", "poly": {"monomials": [[[0, 0], {"m": 2, "blades": '
        '[[[2], "5"]]}]]}}]')
    assert GOLDEN.den == 6
    for f in (GOLDEN, GOLDEN.mul_radial(Fraction(1, 5)).mul_radial(Fraction(-1, 5))):
        assert f.to_text() == want_text
        assert json.dumps(f.to_json()) == want_json


# -- the closed-form operators ------------------------------------------------

def test_dirac_and_x_a_keep_int_exponents_in_their_keys():
    for dk in (DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)])),
               DunklContext(symmetric(3, Fraction(1, 3)))):
        ctx = DeformedContext(dk, DeformParams(Fraction(4, 3), Fraction(1, 5), Fraction(-2, 7)))
        f = random_expr(random.Random(33), dk.m, 2)
        inputs = (f, f.mul_radial(Fraction(1, 7)), ctx.x_a(f))
        for g in inputs:
            assert ctx.dirac(g) == ctx.dirac_on_damped(g, 0)    # the compositions
            assert ctx.x_a(g) == g.vector_mul_left(ctx.par.a / 2 - 1)
            for out in (ctx.dirac(g), ctx.x_a(g)):
                assert out.terms
                assert out.den == lcm(g.den, 3)
                assert all(type(n) is int for n, _mono, _b in out.terms)
                assert all(type(e) is int for _n, mono, _b in out.terms for e in mono)
        # inputs on lattices 1, 3 and 7 read one memo, keyed by monomial alone
        assert set(dk._d_cache) == {mono for g in inputs for _n, mono, _b in g.terms}
