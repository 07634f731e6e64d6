"""The deformed Dirac family: components, superalgebra relations, factorization."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from dunkldirac.deformed import (
    DeformedContext,
    factorization_solutions_generic,
    factorization_solutions_zero_k,
)
from dunkldirac.dunkl import DunklContext
from dunkldirac.kelvin import p_map
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.reflection import hyperoctahedral, symmetric, z2_power
from dunkldirac.scalars import ExactScalar

from conftest import monomial_inputs, rand_fraction, random_expr


def make_ctx(a, b, c, m=2, ks=(Fraction(1, 2), Fraction(3, 2))):
    dk = DunklContext(z2_power(m, list(ks[:m])))
    return DeformedContext(dk, DeformParams(a, b, c))


# -- parameter triple ------------------------------------------------------

def test_params_reject_degenerate_values():
    with pytest.raises(ValueError):
        DeformParams(0, 1, 1)
    with pytest.raises(ValueError):
        DeformParams(2, 0, -1)


def test_commuting_constructor():
    p = DeformParams.commuting(Fraction(2, 3), Fraction(1, 5))
    assert p.c == 2 and p.is_commuting_choice()
    assert not DeformParams(2, 0, 1).is_commuting_choice()


def test_beta_and_l():
    p = DeformParams(4, Fraction(1, 2), 1)
    assert p.l == -1
    assert p.beta(0) == Fraction(-1, 4)
    assert p.beta(2) == Fraction(-5, 4)


# -- operator assembly -----------------------------------------------------

def test_dirac_is_the_sum_of_its_components():
    ctx = make_ctx(Fraction(2, 3), Fraction(1, 2), Fraction(-1, 3))
    f = random_expr(random.Random(4), 2, 2)
    total = RadialExpr(2)
    for i in (1, 2):
        total = total + ctx.dirac_component(i, f).blade_mul_left(1 << (i - 1))
    assert ctx.dirac(f) == total


def test_x_a_squares_to_minus_r_a():
    ctx = make_ctx(Fraction(3, 2), 0, 0)
    f = random_expr(random.Random(5), 2, 2)
    assert ctx.x_a(ctx.x_a(f)) == -f.mul_radial(Fraction(3, 2))


def test_dirac_on_damped_is_the_gauge_shift():
    """Pulling D through e^{-lam r^a/a} costs exactly lam (1+c) x_a."""
    for a, b, c in [(2, 0, 0), (4, Fraction(1, 2), 1),
                    (Fraction(2, 3), Fraction(-1, 4), 2)]:
        ctx = make_ctx(a, b, c)
        f = random_expr(random.Random(6), 2, 2)
        for lam in (1, Fraction(1, 2)):
            expect = ctx.dirac(f) - ctx.x_a(f).scale(lam * (1 + ctx.par.c))
            assert ctx.dirac_on_damped(f, lam) == expect


def test_dirac_damped_matches_dirac_on_damped_at_lam_one():
    ctx = make_ctx(4, Fraction(1, 3), Fraction(1, 2))
    f = random_expr(random.Random(8), 2, 2)
    assert ctx.dirac(f) - ctx.x_a(f).scale(1 + ctx.par.c) == ctx.dirac_on_damped(f, 1)


# -- osp(1|2) relations ------------------------------------------------------

def test_osp_relations_hold_for_random_triples():
    rng = random.Random(20260816)
    for _ in range(3):
        a = rand_fraction(rng, Fraction(1, 4), 4)
        b = rand_fraction(rng, -2, 2)
        c = rand_fraction(rng, -2, 2)
        if a == 0 or c == -1:
            continue
        ctx = make_ctx(a, b, c)
        for f in monomial_inputs(2, 2):
            assert all(d.is_zero() for d in ctx.osp_relations_report(f).values())


def test_osp_report_names_all_eight_relations():
    ctx = make_ctx(2, 0, 0)
    report = ctx.osp_relations_report(RadialExpr.monomial(2, (1, 0)))
    assert len(report) == 8
    assert "{x_a, D} = -2(1+c)(E + delta/2)" in report


def test_osp_relations_fail_for_a_wrong_delta():
    """The anticommutator pins delta; shifting it must leave a residue."""
    ctx = make_ctx(2, Fraction(1, 2), Fraction(1, 3))
    f = RadialExpr.monomial(2, (1, 0))
    anti = ctx.dirac(ctx.x_a(f)) + ctx.x_a(ctx.dirac(f))
    good = anti + (f.euler() + f.scale(ctx.delta / 2)).scale(2 * (1 + ctx.par.c))
    bad = anti + (f.euler() + f.scale(ctx.delta / 2 + 1)).scale(2 * (1 + ctx.par.c))
    assert good.is_zero()
    assert not bad.is_zero()


# -- commutativity of the components -----------------------------------------

def test_components_commute_exactly_on_the_commuting_line():
    f = RadialExpr.monomial(2, (1, 1), blade=0b1)
    for a in (Fraction(2), Fraction(4), Fraction(2, 3)):
        good = make_ctx(a, Fraction(1, 3), 2 / a - 1)
        assert good.commute_defect(1, 2, f).is_zero()
    off = make_ctx(4, Fraction(1, 3), Fraction(1))  # needs c = -1/2
    assert not off.commute_defect(1, 2, f).is_zero()


# -- second-order closed forms ------------------------------------------------

def test_component_sum_closed_form_matches_composition():
    rng = random.Random(11)
    for _ in range(3):
        a = rand_fraction(rng, Fraction(1, 2), 3)
        b = rand_fraction(rng, -1, 1)
        c = rand_fraction(rng, -2, 2)
        if a == 0 or c == -1:
            continue
        ctx = make_ctx(a, b, c)
        f = random_expr(rng, 2, 2)
        assert ctx.sum_components_squared(f) == ctx.sum_components_squared_closed(f)


def test_dirac_squared_closed_form_matches_composition():
    ctx = make_ctx(Fraction(3, 2), Fraction(1, 4), Fraction(1, 2))
    f = random_expr(random.Random(12), 2, 2)
    assert ctx.dirac(ctx.dirac(f)) == ctx.dirac_squared_closed(f)


# -- factorization classification ---------------------------------------------

def test_generic_solutions_factorize_at_nonzero_k():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    for par in factorization_solutions_generic(dk.setup.mu):
        ctx = DeformedContext(dk, par)
        for f in monomial_inputs(2, 2):
            assert ctx.factorization_defect(f).is_zero()


def test_zero_k_solutions_factorize():
    for m in (2, 3):
        dk = DunklContext(z2_power(m, [Fraction(0)] * m))
        sols = factorization_solutions_zero_k(m)
        assert len(sols) == (2 if m == 2 else 4)
        for par in sols:
            ctx = DeformedContext(dk, par)
            for f in monomial_inputs(m, 2):
                assert ctx.factorization_defect(f).is_zero()


def test_perturbed_solution_fails_to_factorize():
    dk = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    for par in factorization_solutions_zero_k(2):
        bad = DeformParams(par.a, par.b + Fraction(1, 7), par.c)
        ctx = DeformedContext(dk, bad)
        assert any(not ctx.factorization_defect(f).is_zero()
                   for f in monomial_inputs(2, 2))


def test_generic_solution_set_is_exactly_two_triples():
    sols = factorization_solutions_generic(Fraction(5))
    assert sols == (DeformParams(2, 0, 0), DeformParams(-2, -3, -2))


# -- the commutator ansatz ------------------------------------------------------

def test_ansatz_reproduces_dirac_from_the_commutator():
    dk = DunklContext(symmetric(3, Fraction(1, 2)))
    for a in (Fraction(2), Fraction(4), Fraction(2, 3)):
        par = DeformParams.ansatz(a, dk.setup.mu)
        ctx = DeformedContext(dk, par)
        f = random_expr(random.Random(14), 3, 2)
        assert ctx.dirac_from_commutator(f) == ctx.dirac(f)


def test_ansatz_at_a_two_is_the_dunkl_dirac():
    par = DeformParams.ansatz(2, Fraction(4))
    assert (par.a, par.b, par.c) == (2, 0, 0)


# -- D in closed form, and x_a ---------------------------------------------------

GROUPS = [
    DunklContext(z2_power(3, [Fraction(1, 2), Fraction(1, 3), Fraction(2)])),
    DunklContext(symmetric(3, Fraction(1, 2))),
    DunklContext(hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3))),
]


def composed_dirac_k(dk, f):
    """D_k f as sum_i e_i T_i f, the components composed."""
    out = RadialExpr(dk.m)
    for i in range(1, dk.m + 1):
        out = out + dk.dunkl(i, f).blade_mul_left(1 << (i - 1))
    return out


def composed_dirac(ctx, f):
    """D f by the composition, through the gauge form at lam = 0."""
    return ctx.dirac_on_damped(f, 0)


def composed_x_a(ctx, f):
    return f.vector_mul_left(ctx.par.a / 2 - 1)


def assert_matches_compositions(ctx, f):
    assert ctx.dk.dirac(f) == composed_dirac_k(ctx.dk, f)
    assert ctx.dirac(f) == composed_dirac(ctx, f)
    assert ctx.x_a(f) == composed_x_a(ctx, f)


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
triples = st.tuples(fractions.filter(bool), fractions,
                    fractions.filter(lambda c: c != -1))


@st.composite
def group_and_expr(draw, coeffs=fractions):
    dk = draw(st.sampled_from(GROUPS))
    m = dk.m
    keys = st.tuples(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3),
                         Fraction(2), Fraction(5, 3)]),
        st.tuples(*[st.integers(0, 2)] * m),
        st.integers(0, (1 << m) - 1))
    terms = draw(st.dictionaries(keys, coeffs.filter(bool), min_size=1, max_size=4))
    return dk, RadialExpr(m, terms)


@given(case=group_and_expr(), par=triples, other=triples)
@settings(max_examples=40, deadline=None)
def test_cached_operators_match_their_compositions(case, par, other):
    dk, f = case
    ctx = DeformedContext(dk, DeformParams(*par))
    assert_matches_compositions(ctx, f)           # cold
    assert_matches_compositions(ctx, f)           # warm
    # the same monomials and blades under another radial exponent
    assert_matches_compositions(ctx, f.mul_radial(Fraction(1, 3)) + f.scale(2))
    # another triple on the same group reads the same memo
    if other != par:
        assert_matches_compositions(DeformedContext(dk, DeformParams(*other)), f)


@given(case=group_and_expr(), par=triples, power=fractions)
@settings(max_examples=30, deadline=None)
def test_exact_scalar_coefficients_match_the_compositions(case, par, power):
    """ExactScalar coefficients, with one or two powers of 3/2 each, pass
    through D and D_k and come out as the compositions' coefficients."""
    dk, f = case
    ctx = DeformedContext(dk, DeformParams(*par))
    g = f.scale(ExactScalar.power(Fraction(3, 2), power, 2)) + f.mul_radial(1).scale(
        ExactScalar(Fraction(3, 2), {Fraction(1, 3): 1, Fraction(-1, 2): -1}))
    assert all(isinstance(c, ExactScalar) for c in g.terms.values())
    assert_matches_compositions(ctx, g)
    assert all(ctx.dirac(g).terms.values()) and all(dk.dirac(g).terms.values())


def test_each_context_keeps_its_own_images():
    dk = GROUPS[1]
    f = random_expr(random.Random(21), 3, 2)
    first = DeformedContext(dk, DeformParams(Fraction(2, 3), Fraction(1, 2), Fraction(1, 3)))
    second = DeformedContext(dk, DeformParams(Fraction(4), Fraction(-1, 3), Fraction(2)))
    for ctx in (first, second, first, second):
        assert_matches_compositions(ctx, f)
        assert_matches_compositions(ctx, f.mul_radial(Fraction(-1, 2)))


def test_mutating_a_result_leaves_the_images_intact():
    ctx = DeformedContext(GROUPS[0], DeformParams(Fraction(3, 2), Fraction(1, 4), Fraction(-1, 2)))
    f = random_expr(random.Random(22), 3, 2)
    for op in (ctx.dirac, ctx.dk.dirac, ctx.x_a):
        got = op(f)
        for key in got.terms:
            got.terms[key] *= 5
        got.terms[(Fraction(7), (0, 0, 0), 0)] = Fraction(1)
    assert_matches_compositions(ctx, f)


def test_exact_scalar_coefficients_pass_through_the_images():
    par = DeformParams.commuting(Fraction(3), Fraction(1, 2))
    g = random_expr(random.Random(23), 2, 2)
    f = p_map(par, g)   # coefficients carry powers of 3/2 such as (3/2)^(1/3)
    assert any(key[0] for c in f.terms.values() for key in c.terms)
    ctx = DeformedContext(GROUPS[2], par)
    for _ in range(2):
        assert_matches_compositions(ctx, f)


def test_cache_info_counts_hits_and_misses_per_operator():
    """The DunklContext counts its memos per operator: a lookup of
    dirac_monomial per input term of D or D_k, whatever the coefficients."""
    dk = DunklContext(hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3)))
    ctx = DeformedContext(dk, DeformParams(Fraction(4, 3), Fraction(1, 5), Fraction(2, 7)))
    f = RadialExpr.monomial(2, (1, 0)) + RadialExpr.monomial(2, (0, 1), blade=0b11)
    assert dk.cache_info()["dirac_monomial"] == {"hits": 0, "misses": 0}
    ctx.dirac(f)
    dk.dirac(f)
    ctx.x_a(f.scale(3))
    info = dk.cache_info()
    assert set(info) == {"dunkl_monomial", "dirac_monomial"}
    assert info["dirac_monomial"] == {"hits": 2, "misses": 2}
    # T_i is read once per coordinate and monomial, when the memo is built
    assert info["dunkl_monomial"] == {"hits": 0, "misses": 4}
    # an ExactScalar input on the same monomials reads the same entries
    two = ExactScalar(Fraction(3, 2), {0: 1, Fraction(1, 2): 1})
    g = p_map(DeformParams(3, 0, 0), f).scale(two)
    assert all(len(c.terms) == 2 for c in g.terms.values())
    ctx.dirac(g)
    assert dk.cache_info()["dirac_monomial"] == {"hits": 4, "misses": 2}


def test_a_second_triple_on_the_same_group_adds_no_misses():
    dk = DunklContext(symmetric(3, Fraction(1, 2)))
    f = random_expr(random.Random(24), 3, 2)
    first = DeformedContext(dk, DeformParams(Fraction(4, 3), Fraction(-2, 5), Fraction(-3, 7)))
    first.osp_relations_report(f)
    misses = dk.cache_info()["dirac_monomial"]["misses"]
    assert misses > 0
    second = DeformedContext(dk, DeformParams(Fraction(11, 3), Fraction(-9, 5), Fraction(8, 7)))
    second.osp_relations_report(f)
    assert dk.cache_info()["dirac_monomial"]["misses"] == misses


over_3_5_7 = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([3, 5, 7]))


@st.composite
def seeded_triples(draw):
    """(a, b, c) over the denominators 3, 5, 7, as the benchmark draws them."""
    a = Fraction(draw(st.sampled_from([1, 2, 4, 5, 7, 8, 10, 11])), 3)
    b = Fraction(draw(st.integers(-9, 9)), 5)
    c = Fraction(draw(st.sampled_from([-6, -3, -1, 0, 1, 2, 5, 9, 13])), 7)
    return DeformParams(a, b, c)


@given(case=group_and_expr(over_3_5_7), par=seeded_triples(), scale=over_3_5_7.filter(bool))
@settings(max_examples=40, deadline=None)
def test_dirac_stores_no_zero_coefficient(case, par, scale):
    """Images with denominators 3, 5, 7 that overlap and can cancel mid-sum
    leave no coefficient stored as zero, and D still equals its composition."""
    dk, f = case
    ctx = DeformedContext(dk, par)
    g = f.scale(scale) + f.mul_x(1).scale(Fraction(2, 5)) - f.mul_radial(2).scale(Fraction(1, 7))
    for h in (f, g, ctx.dirac(g)):
        got = ctx.dirac(h)
        assert got == composed_dirac(ctx, h)
        assert all(got.terms.values())


@pytest.mark.parametrize("dk", GROUPS)
def test_dirac_of_one_at_the_classical_triple_has_no_terms(dk):
    ctx = DeformedContext(dk, DeformParams(2, 0, 0))
    assert ctx.dirac(RadialExpr.scalar(dk.m, Fraction(1))).terms == {}


# -- the osp report in integers ------------------------------------------------

def osp_by_composition(ctx, f) -> dict:
    """The eight osp defects composed in Fractions through the RadialExpr
    operators, relation by relation as the report names them."""
    a, one_c = ctx.par.a, 1 + ctx.par.c
    df, xf = ctx.dirac(f), ctx.x_a(f)
    ddf, xxf = ctx.dirac(df), ctx.x_a(xf)
    ehd = f.euler() + f.scale(ctx.delta / 2)
    ef = f.euler()
    return {
        "{x_a, D} = -2(1+c)(E + delta/2)":
            (ctx.x_a(df) + ctx.dirac(xf)) + ehd.scale(2 * one_c),
        "[x_a^2, D] = a(1+c) x_a":
            (ctx.x_a(ctx.x_a(df)) - ctx.dirac(xxf)) - xf.scale(a * one_c),
        "[D^2, x_a] = -a(1+c) D":
            (ctx.dirac(ctx.dirac(xf)) - ctx.x_a(ddf)) + df.scale(a * one_c),
        "[D^2, x_a^2] = 2a(1+c)^2 (E + delta/2)":
            (ctx.dirac(ctx.dirac(xxf)) - ctx.x_a(ctx.x_a(ddf)))
            - ehd.scale(2 * a * one_c * one_c),
        "[E + delta/2, D] = -(a/2) D":
            (df.euler() - ctx.dirac(ef)) + df.scale(a / 2),
        "[E + delta/2, x_a] = (a/2) x_a":
            (xf.euler() - ctx.x_a(ef)) - xf.scale(a / 2),
        "[E + delta/2, D^2] = -a D^2":
            (ddf.euler() - ctx.dirac(ctx.dirac(ef))) + ddf.scale(a),
        "[E + delta/2, x_a^2] = a x_a^2":
            (xxf.euler() - ctx.x_a(ctx.x_a(ef))) - xxf.scale(a),
    }


def osp_input(m: int) -> RadialExpr:
    """Three terms on the lattice 1/35, which den(a/2) = 3 or 1 does not divide."""
    return RadialExpr(m, {
        (Fraction(1, 5), (1,) + (0,) * (m - 1), 1): Fraction(2, 3),
        (Fraction(-3, 7), (0, 1) + (0,) * (m - 2), 0): Fraction(-5, 4),
        (Fraction(0), (1, 1) + (0,) * (m - 2), (1 << m) - 1): Fraction(1, 7),
    })


OSP_TRIPLES = [
    DeformParams.commuting(Fraction(4, 3), Fraction(-2, 5)),
    DeformParams(Fraction(4, 3), Fraction(-2, 5), Fraction(-3, 7)),
    DeformParams(Fraction(11, 3), Fraction(-9, 5), Fraction(8, 7)),
    DeformParams.commuting(Fraction(2), Fraction(1, 3)),
]


@pytest.mark.parametrize("par", OSP_TRIPLES, ids=lambda p: f"{p.a},{p.b},{p.c}")
@pytest.mark.parametrize("dk", GROUPS, ids=lambda dk: dk.setup.name)
def test_integer_osp_report_equals_the_fraction_composition(dk, par):
    f = osp_input(dk.m)
    for doctored in (0, 1):
        ctx = DeformedContext(dk, par)
        ctx.delta += doctored
        for g in (f, ctx.dirac(f) + f.mul_radial(Fraction(2, 9))):
            got = ctx.osp_relations_report(g)
            want = osp_by_composition(ctx, g)
            assert list(got) == list(want)
            for name in want:
                assert got[name] == want[name], name
                assert got[name].den == lcm((par.a / 2).denominator, g.den)
            assert any(not d.is_zero() for d in got.values()) == bool(doctored)


DELTA_RELATIONS = {"{x_a, D} = -2(1+c)(E + delta/2)",
                   "[D^2, x_a^2] = 2a(1+c)^2 (E + delta/2)"}


@pytest.mark.parametrize("dk", GROUPS, ids=lambda dk: dk.setup.name)
def test_a_doctored_delta_fails_exactly_the_relations_that_use_it(dk):
    """The zero test is not vacuous: delta + 1 leaves a residue on the two
    relations with a delta/2 term, and on no other."""
    ctx = DeformedContext(dk, OSP_TRIPLES[1])
    ctx.delta += 1
    for f in monomial_inputs(dk.m, 1):
        report = ctx.osp_relations_report(f)
        assert {name for name, d in report.items() if not d.is_zero()} == DELTA_RELATIONS


def test_osp_report_rejects_exact_scalar_coefficients():
    par = DeformParams.commuting(Fraction(3), Fraction(1, 2))
    f = p_map(par, RadialExpr.monomial(2, (1, 0)))
    assert any(isinstance(c, ExactScalar) for c in f.terms.values())
    with pytest.raises(ValueError, match="rational coefficients only"):
        DeformedContext(GROUPS[2], par).osp_relations_report(f)
