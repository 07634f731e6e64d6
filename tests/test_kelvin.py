"""Rescaling maps P, Q and the inversion that reaches a = -2."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkldirac import cli, kelvin
from dunkldirac.cli import main
from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.kelvin import (
    InversionReport,
    KelvinReport,
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
from dunkldirac.reflection import hyperoctahedral, symmetric, z2_power
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


def constructor_inversion(dk, f):
    """r^s p_d -> r^{2 - mu - s - 2d} p_d through the RadialExpr constructor."""
    mu = dk.setup.mu
    return RadialExpr(f.m, {(2 - mu - s - 2 * sum(mono), mono, blade): coeff
                            for (s, mono, blade), coeff in f.rational_terms()})


@pytest.mark.parametrize("ks", [(Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 3), Fraction(3, 2))],
                         ids=["mu=6", "mu=17/3"])
@pytest.mark.parametrize("den", [1, 3, 7])
def test_inversion_matches_the_constructor_route(ks, den):
    """The same terms in the same order, rational and ExactScalar
    coefficients alike, so text, JSON and float sums downstream agree."""
    dk = DunklContext(z2_power(2, list(ks)))
    par = DeformParams.commuting(Fraction(5, 2), Fraction(-1, 5))
    rng = random.Random(den)
    for _ in range(3):
        f = lattice_expr(rng, 2, den)
        for g in (f, p_map(par, f)):
            got, want = inversion(dk, g), constructor_inversion(dk, g)
            assert got == want
            assert list(got.rational_terms()) == list(want.rational_terms())
            assert got.to_text() == want.to_text()
            assert got.to_json() == want.to_json()


def test_memoized_powers_keep_their_terms_through_a_suite_run(tmp_path):
    """Memo entries are shared: the suite reads P and Q from the memo of
    class tables that power_cache_info counts, and its lookups hit there;
    the power behind pq_constant at the golden verify-kelvin triple is the
    same object, with the same terms, after the suite has run."""
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


# -- the integer reports against the compositional route -------------------------

REPORT_GROUPS = [
    DunklContext(z2_power(2, [Fraction(1, 3), Fraction(3, 2)])),
    DunklContext(hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3))),
    DunklContext(symmetric(3, Fraction(1, 2))),
]
# a/2 = 1/4 = 2^-2, 9/4 = (3/2)^2 and 18: whole powers of a perfect-power
# base fold into the rational part
EDGE_A = [Fraction(1, 2), Fraction(9, 2), Fraction(36)]
small = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))


@st.composite
def kelvin_cases(draw):
    """A group, a commuting triple (edge bases or random a > 0) and a
    multi-term rational input whose exponents sit on the lattices 1/1 to 1/5."""
    dk = draw(st.sampled_from(REPORT_GROUPS))
    m = dk.m
    keys = st.tuples(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])),
                     st.tuples(*[st.integers(0, 2)] * m), st.integers(0, (1 << m) - 1))
    terms = draw(st.dictionaries(keys, small.filter(bool), min_size=1, max_size=4))
    a = draw(st.sampled_from(EDGE_A) | small.filter(lambda x: x > 0))
    return dk, DeformParams.commuting(a, draw(small)), RadialExpr(m, terms)


def by_composition(dk, par, f, shift):
    """The Kelvin defects through p_map, q_map, T_i and the inversion on
    RadialExpr, with the constant's and the prefactor's exponents of a/2,
    and the b of the a = -2 triple, raised by shift."""
    half = par.a / 2
    raise_by = ExactScalar.power(half, shift)
    const = pq_constant(par) * raise_by
    rescaling = (q_map(par, p_map(par, f)) - f.scale(const),
                 p_map(par, q_map(par, f)) - f.scale(const))
    dctx = DeformedContext(dk, par)
    intertwining = tuple(intertwined_component(dctx, i, f).scale(raise_by)
                         - dctx.dirac_component(i, f) for i in range(1, dk.m + 1))
    inv = inversion_params(dk.setup.mu)
    ctx = DeformedContext(dk, DeformParams(inv.a, inv.b + shift, inv.c))
    inverted = (inversion(dk, inversion(dk, f)) - f, dirac_via_inversion(dk, f) - ctx.dirac(f))
    return rescaling, intertwining, inverted, ctx


@given(case=kelvin_cases(), step=st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_integer_reports_equal_the_compositional_route(case, step):
    """Equal defects, key by key in their folded values, on the true
    relations (all zero) and with each exponent raised by one step of its
    lattice (defects left standing, folded where a/2 is a perfect power)."""
    dk, par, f = case
    shift = Fraction(step, 2 * par.b.denominator)
    rescaling, intertwining, inverted, ctx = by_composition(dk, par, f, shift)
    report = KelvinReport(dk, par)
    report.constant += shift
    report.prefactor += shift
    inv = InversionReport(dk)
    inv.context = ctx
    assert report.rescaling(f) == rescaling
    assert report.intertwining(f) == intertwining
    assert inv(f) == inverted
    # the zero test is not vacuous: a shifted constant leaves Q P f - C f standing
    if step and par.a != 2 and not f.is_zero():
        assert not any(d.is_zero() for d in rescaling)


def test_reports_take_rational_coefficients_only():
    par = DeformParams.commuting(Fraction(3), Fraction(1, 2))
    dk = REPORT_GROUPS[0]
    f = p_map(par, RadialExpr.monomial(2, (1, 0)))
    for run in (KelvinReport(dk, par).rescaling, KelvinReport(dk, par).intertwining,
                InversionReport(dk)):
        with pytest.raises(ValueError, match="rational coefficients only"):
            run(f)


@pytest.mark.parametrize("exponent, relation", [
    ("constant", "Q P = P Q = (2/a)^{b/2}"),
    ("prefactor", "(a/2)^{(b-1)/2} Q T_i P = D_i"),
])
def test_a_shifted_exponent_fails_every_row_of_its_relation(tmp_path, monkeypatch,
                                                            exponent, relation):
    """The golden verify-kelvin run with the constant's or the prefactor's
    exponent of a/2 one step off its lattice: every row of that relation
    reads FAILED, every other row still passes."""

    class Shifted(KelvinReport):
        def __init__(self, dk, par):
            super().__init__(dk, par)
            value = getattr(self, exponent)
            setattr(self, exponent, value + Fraction(1, value.denominator))

    monkeypatch.setattr(cli, "KelvinReport", Shifted)
    assert main(["verify-kelvin", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
                 "--degree", "2", "--a", "2/3", "--b", "1/5", "--c", "1/7",
                 "--out", str(tmp_path)]) == 1
    rows = [json.loads(line) for line in (tmp_path / "verify-kelvin.jsonl").read_text().splitlines()]
    hit = [row["pass"] for row in rows if row["relation"] == relation]
    assert len(hit) == 24 and not any(hit)
    assert all(row["pass"] for row in rows if row["relation"] != relation)
