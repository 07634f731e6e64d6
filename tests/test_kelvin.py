"""Rescaling maps P, Q and the inversion that reaches a = -2."""

import random
from fractions import Fraction

import numpy as np
import pytest

from dunkldirac import kelvin
from dunkldirac.cli import main
from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.kelvin import (
    dirac_via_inversion,
    intertwined_component,
    inversion,
    inversion_params,
    p_map,
    pq_constant,
    q_coordinate_map,
    q_map,
)
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.quadrature import evaluate
from dunkldirac.reflection import z2_power
from dunkldirac.scalars import ExactScalar

from conftest import lattice_expr, rand_fraction, random_expr


def make_ctx(a, b, ks=(Fraction(1, 2), Fraction(3, 2))):
    dk = DunklContext(z2_power(2, list(ks)))
    return DeformedContext(dk, DeformParams.commuting(a, b))


# -- the composition constant ------------------------------------------------

def test_qp_and_pq_are_the_same_constant():
    rng = random.Random(20260816)
    for _ in range(5):
        a = rand_fraction(rng, Fraction(1, 4), 4)
        b = rand_fraction(rng, -2, 2)
        if a == 0:
            continue
        par = DeformParams.commuting(a, b)
        f = random_expr(rng, 2, 2)
        const = pq_constant(par)
        assert q_map(par, p_map(par, f)) == f.scale(const)
        assert p_map(par, q_map(par, f)) == f.scale(const)


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(8), Fraction(18), Fraction(2, 9)])
def test_qp_is_the_constant_where_a_over_2_is_a_perfect_power(a):
    """a/2 = 1/4, 4, 9 and 1/9: the powers of a/2 in Q P f and in the
    constant reach the same value by different roads, and must meet in one
    canonical form."""
    par = DeformParams.commuting(a, Fraction(1, 2))
    for seed in range(3):
        f = random_expr(random.Random(seed), 2, 2)
        assert q_map(par, p_map(par, f)) == f.scale(pq_constant(par))


def test_pq_constant_value():
    par = DeformParams.commuting(Fraction(1, 2), 3)
    # (2/a)^{b/2} = 4^{3/2} = 8
    assert pq_constant(par) == 8


def test_p_map_at_a_two_is_the_identity():
    par = DeformParams.commuting(2, 0)
    f = random_expr(random.Random(3), 2, 2)
    assert p_map(par, f) == f
    assert q_map(par, f) == f


# -- intertwining on the commuting line ----------------------------------------

def test_intertwined_dirac_matches_deformed_dirac():
    """sum_i e_i (a/2)^{(b-1)/2} Q T_i P f = D f, the cached operator."""
    rng = random.Random(7)
    for a, b in [(2, Fraction(1, 3)), (4, Fraction(-1, 2)),
                 (Fraction(2, 3), Fraction(1, 4))]:
        ctx = make_ctx(a, b)
        f = random_expr(rng, 2, 2)
        got = RadialExpr(2)
        for i in (1, 2):
            got = got + intertwined_component(ctx, i, f).blade_mul_left(1 << (i - 1))
        assert got == ctx.dirac(f)


def test_intertwined_components_match():
    ctx = make_ctx(4, Fraction(1, 2))
    f = random_expr(random.Random(9), 2, 2)
    for i in (1, 2):
        assert intertwined_component(ctx, i, f) == ctx.dirac_component(i, f)


def test_intertwining_requires_the_commuting_line():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    off = DeformedContext(dk, DeformParams(4, Fraction(1, 2), 1))
    with pytest.raises(ValueError, match="c = 2/a - 1"):
        intertwined_component(off, 1, RadialExpr.monomial(2, (1, 0)))


# -- inversion ------------------------------------------------------------------

def test_inversion_is_an_involution():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    f = random_expr(random.Random(11), 2, 3)
    assert inversion(dk, inversion(dk, f)) == f


def test_inversion_conjugates_to_the_a_minus2_member():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    par = inversion_params(dk.setup.mu)
    assert (par.a, par.c) == (-2, -2)
    ctx = DeformedContext(dk, par)
    f = random_expr(random.Random(13), 2, 2)
    assert dirac_via_inversion(dk, f) == ctx.dirac(f)


def test_inversion_fixes_the_kelvin_degree():
    # r^{2-mu} is the inversion image of the constant
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    mu = dk.setup.mu
    one = RadialExpr.monomial(2, (0, 0))
    assert inversion(dk, one) == RadialExpr.monomial(2, (0, 0), r_exp=2 - mu)


# -- pointwise coordinate maps ------------------------------------------------

def test_p_map_is_the_pullback_under_the_coordinate_change():
    """(P f)(x) = |x|^b f(z(x)), where z inverts y': so (P f)(y'(y)) = |y'(y)|^b f(y)."""
    par = DeformParams.commuting(Fraction(3, 2), Fraction(1, 4))
    f = random_expr(random.Random(17), 2, 2)
    pf = p_map(par, f)
    pts = np.array([[0.4, 0.8], [1.2, -0.5], [2.0, 1.0]])
    x = q_coordinate_map(par, pts)
    r = np.sqrt(np.sum(x * x, axis=1))
    lhs = evaluate(pf, x)
    rhs = evaluate(f, pts) * (r ** float(par.b))[:, None]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_q_map_is_the_pullback_under_its_coordinate_change():
    """(Q g)(y) = r^{-ab/2} g(y'(y)) pointwise."""
    par = DeformParams.commuting(4, Fraction(-1, 3))
    g = random_expr(random.Random(19), 2, 2)
    qg = q_map(par, g)
    pts = np.array([[0.3, 0.9], [1.1, -0.2]])
    r = np.sqrt(np.sum(pts * pts, axis=1))
    lhs = evaluate(qg, pts)
    rhs = evaluate(g, q_coordinate_map(par, pts)) \
        * (r ** float(-par.a * par.b / 2))[:, None]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


# -- P and Q on the int lattice against the constructor route ----------------------

def constructor_rescale(f, a, power, new_s):
    """r^s p_d -> (a/2)^{power(s + d)} r^{new_s(s, d)} p_d through the
    RadialExpr constructor, one fresh power of a/2 per distinct degree."""
    terms, scale = {}, {}
    for (s, mono, blade), coeff in f.rational_terms():
        d = sum(mono)
        if s + d not in scale:
            scale[s + d] = ExactScalar.power(a / 2, power(s + d))
        terms[(new_s(s, d), mono, blade)] = coeff * scale[s + d]
    return RadialExpr(f.m, terms)


def constructor_p(par, f):
    a, b = par.a, par.b
    return constructor_rescale(f, a, lambda w: w / a,
                               lambda s, d: b + 2 * s / a + (Fraction(2) / a - 1) * d)


def constructor_q(par, f):
    a, b = par.a, par.b
    return constructor_rescale(f, a, lambda w: -w / 2,
                               lambda s, d: -a * b / 2 + a * s / 2 + (a / 2 - 1) * d)


def assert_same_expr(got, want):
    """Equal, on the same lattice, with the terms in the same order."""
    assert got == want
    assert got.den == want.den
    assert list(got.terms) == list(want.terms)
    assert got.to_text() == want.to_text()


@pytest.mark.parametrize("m", [2, 3], ids=["z2^2", "z2^3"])
@pytest.mark.parametrize("ab", [(Fraction(4, 3), Fraction(1, 3)),
                                (Fraction(5, 2), Fraction(-1, 5))],
                         ids=["4/3,1/3", "5/2,-1/5"])
@pytest.mark.parametrize("den", [1, 3, 7])
def test_p_and_q_match_the_constructor_route(m, ab, den):
    """Rational inputs on the lattices 1/1, 1/3 and 1/7, and ExactScalar
    inputs (their images under the other map)."""
    par = DeformParams.commuting(*ab)
    rng = random.Random(10 * den + m)
    for _ in range(3):
        f = lattice_expr(rng, m, den)
        assert f.den == den
        for mine, ref, other in ((p_map, constructor_p, q_map), (q_map, constructor_q, p_map)):
            assert_same_expr(mine(par, f), ref(par, f))
            scalars = other(par, f)
            assert_same_expr(mine(par, scalars), ref(par, scalars))


def test_memoized_powers_keep_their_terms_through_a_suite_run(tmp_path):
    """Memo entries are shared: the power behind pq_constant at the golden
    verify-kelvin triple is the same object, with the same terms, after
    that suite has scaled by it and by its neighbours."""
    par = DeformParams(Fraction(2, 3), Fraction(1, 5), Fraction(1, 7))
    const = pq_constant(par)
    terms = dict(const.terms)
    hits = kelvin.power_cache_info().hits
    assert main(["verify-kelvin", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
                 "--degree", "2", "--a", "2/3", "--b", "1/5", "--c", "1/7",
                 "--out", str(tmp_path)]) == 0
    assert kelvin.power_cache_info().hits > hits
    assert pq_constant(par) is const
    assert const.terms == terms
