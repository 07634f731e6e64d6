"""Weighted integrals in closed Gamma form, plus the numeric cross-checks."""

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dunkldirac import measure
from dunkldirac.cli import main
from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.fischer import monogenic_basis
from dunkldirac.kelvin import p_map
from dunkldirac.laguerre import LaguerreTower
from dunkldirac.measure import (
    axis_multiplicities,
    inner_product_exact,
    mehta_constant,
    norm_constant,
    radial_integral,
    sphere_inner_exact,
    sphere_moment,
    weight_exponent,
)
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.reflection import dihedral, hyperoctahedral, symmetric, z2_power
from dunkldirac.scalars import ExactScalar

from conftest import lattice_expr


# -- the Gamma part of the exact scalar ring ---------------------------------

def test_gamma_comb_reduces_arguments_to_the_unit_interval():
    # Gamma(7/2) = (5/2)(3/2)(1/2) Gamma(1/2)
    g = ExactScalar.term(1, gnum=(Fraction(7, 2),))
    ((_q, _p, gnum, gden), coeff), = g.terms.items()
    assert gnum == (Fraction(1, 2),)
    assert coeff == Fraction(15, 8)


def test_gamma_comb_integer_gamma_folds_to_rational():
    # Gamma(5) = 24
    g = ExactScalar.term(1, gnum=(Fraction(5),))
    assert g == ExactScalar.term(24)


def test_gamma_comb_numerator_pole_raises():
    with pytest.raises(ValueError, match="Gamma pole"):
        ExactScalar.term(1, gnum=(Fraction(-2),))


def test_gamma_comb_denominator_pole_vanishes():
    g = ExactScalar.term(1, gden=(Fraction(0),))
    assert g.is_zero()


def test_gamma_comb_ring_laws():
    x = ExactScalar.term(2, gnum=(Fraction(1, 2),))
    y = ExactScalar.term(1, gnum=(Fraction(1, 3),), gden=(Fraction(1, 2),))
    z = ExactScalar.term(Fraction(3, 4))
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x - x).is_zero()


def test_gamma_comb_cancels_matching_quotients():
    # Gamma(1/3)/Gamma(1/3) = 1
    g = ExactScalar.term(5, gnum=(Fraction(1, 3),), gden=(Fraction(1, 3),))
    assert g == ExactScalar.term(5)


def test_gamma_comb_two_power_canonicalization():
    # 2^{3/2} and 2 * 2^{1/2} must merge
    x = ExactScalar.term(1, two_pow=Fraction(3, 2))
    y = ExactScalar.term(2, two_pow=Fraction(1, 2))
    assert x == y


def test_gamma_comb_numeric_value():
    g = ExactScalar.term(1, gnum=(Fraction(1, 2),))
    assert abs(float(g.numeric()) - float(mpmath.sqrt(mpmath.pi))) < 1e-12


# -- radial integral -----------------------------------------------------

def test_radial_integral_against_quadrature():
    for Q, a in [(Fraction(3), Fraction(2)), (Fraction(5, 2), Fraction(2)),
                 (Fraction(4), Fraction(3)), (Fraction(7, 3), Fraction(1, 2))]:
        exact = radial_integral(Q, a)
        num = mpmath.quad(
            lambda r: r ** (float(Q) - 1) * mpmath.exp(-2 * r ** float(a) / float(a)),
            [0, mpmath.inf])
        assert abs(float(exact.numeric()) - float(num)) < 1e-10


def test_radial_integral_rejects_divergence():
    with pytest.raises(ValueError, match="divergent"):
        radial_integral(Fraction(0), 2)
    with pytest.raises(ValueError):
        radial_integral(Fraction(2), Fraction(-1))


def test_radial_integral_lam_scaling():
    # doubling lam multiplies the value by 2^{-Q/a}
    base = radial_integral(Fraction(3), 2, lam=2)
    scaled = radial_integral(Fraction(3), 2, lam=4)
    assert abs(float(scaled.numeric()) - float(base.numeric()) / 2 ** 1.5) < 1e-12


# -- sphere moments --------------------------------------------------------

def test_sphere_moment_odd_exponent_vanishes():
    assert sphere_moment(2, (1, 2)).is_zero()


def test_sphere_moment_total_mass_m2():
    # unweighted unit circle has measure 2 pi
    total = sphere_moment(2, (0, 0))
    assert abs(float(total.numeric()) - 2 * float(mpmath.pi)) < 1e-12


def test_sphere_moment_classical_values():
    # int_{S^1} xi_1^2 dsigma = pi; int_{S^2} xi_1^2 dsigma = 4 pi / 3
    assert abs(float(sphere_moment(2, (2, 0)).numeric()) - float(mpmath.pi)) < 1e-12
    expect = 4 * float(mpmath.pi) / 3
    assert abs(float(sphere_moment(3, (2, 0, 0)).numeric()) - expect) < 1e-12


def test_sphere_moment_weighted_against_quadrature():
    ks = [Fraction(1, 2), Fraction(3, 2)]
    mono = (2, 4)
    exact = float(sphere_moment(2, mono, ks).numeric())
    half_pi = mpmath.pi / 2
    num = mpmath.quad(
        lambda th: (mpmath.cos(th) ** 2 * mpmath.sin(th) ** 4
                    * (2 * mpmath.cos(th) ** 2) ** 0.5
                    * (2 * mpmath.sin(th) ** 2) ** 1.5),
        [k * half_pi for k in range(5)])  # split at the |.| kinks
    assert abs(exact - float(num)) < 1e-10


# -- axis multiplicities and the weight exponent ----------------------------

def test_axis_multiplicities():
    assert axis_multiplicities(z2_power(2, [1, 2])) == [1, 2]
    hyper = axis_multiplicities(dihedral(2, Fraction(1, 2), Fraction(3, 2)))
    assert hyper == [Fraction(1, 2), Fraction(3, 2)]
    assert axis_multiplicities(symmetric(3, 1)) is None


def test_weight_exponent_closes_the_radial_collapse():
    """e_h + 2 gamma + m = delta for every triple."""
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    for a, b, c in [(2, 0, 0), (4, Fraction(1, 2), 1),
                    (Fraction(2, 3), Fraction(-1, 4), 2)]:
        ctx = DeformedContext(dk, DeformParams(a, b, c))
        eh = weight_exponent(ctx)
        assert eh + 2 * dk.setup.gamma + dk.setup.m == ctx.delta


# -- inner products ----------------------------------------------------------

def make_ctx(a, b, c, ks=(Fraction(1, 2), Fraction(3, 2))):
    dk = DunklContext(z2_power(2, list(ks)))
    return DeformedContext(dk, DeformParams(a, b, c))


def test_inner_product_requires_axis_aligned_roots():
    dk = DunklContext(symmetric(3, 1))
    ctx = DeformedContext(dk, DeformParams(2, 0, 0))
    f = RadialExpr.monomial(3, (0, 0, 0))
    with pytest.raises(ValueError, match="axis-aligned"):
        inner_product_exact(ctx, f.bar().mul_expr(f))
    with pytest.raises(ValueError, match="axis-aligned"):
        sphere_inner_exact(dk.setup, f.bar().mul_expr(f))


def test_gaussian_mass_matches_mehta():
    """<1, 1> at (2, 0, 0) with lam = 2 doubles the damping: e^{-r^2}.

    Rescaling x -> x/sqrt(2) in the Mehta integral gives
    int e^{-r^2} w_k = 2^{-(mu+2gamma)/2} ... cross-check numerically instead.
    """
    ctx = make_ctx(2, 0, 0)
    one = RadialExpr.monomial(2, (0, 0))
    got = inner_product_exact(ctx, one.bar().mul_expr(one))
    # the integrand is a product f(x) g(y), so the plane integral is a product
    num = (mpmath.quad(lambda x: mpmath.exp(-x * x) * (2 * x * x) ** 0.5, [-6, 0, 6])
           * mpmath.quad(lambda y: mpmath.exp(-y * y) * (2 * y * y) ** 1.5, [-6, 0, 6]))
    assert set(got) == {0}
    assert abs(float(got[0].numeric()) - float(num)) < 1e-8


def test_mehta_constant_z2_value():
    setup = z2_power(2, [Fraction(1, 2), Fraction(3, 2)])
    exact = float(mehta_constant(setup).numeric())
    # the integrand is a product f(x) g(y), so the plane integral is a product
    num = (mpmath.quad(lambda x: mpmath.exp(-x * x / 2) * (2 * x * x) ** 0.5, [-8, 0, 8])
           * mpmath.quad(lambda y: mpmath.exp(-y * y / 2) * (2 * y * y) ** 1.5, [-8, 0, 8]))
    assert abs(exact - float(num)) < 1e-8


def test_mehta_constant_rejects_off_axis_groups():
    """Off the axes the closed constant is known for the families the package
    builds (A and B); a setup of any other name is refused."""
    from dunkldirac.reflection import ReflectionSetup
    line = ReflectionSetup("line", 2, ((Fraction(1), Fraction(-1)),), (Fraction(1),))
    with pytest.raises(ValueError, match="no closed"):
        mehta_constant(line)


def gauss_hermite_mass(setup, n=24):
    """int e^{-|x|^2/2} w_k dx on an n^m product Gauss-Hermite rule, exact
    for the polynomial weights of integer multiplicities."""
    x, w = np.polynomial.hermite_e.hermegauss(n)
    grids = np.meshgrid(*([x] * setup.m), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.prod(np.stack(np.meshgrid(*([w] * setup.m), indexing="ij")), axis=0).ravel()
    return float(np.sum(wts * setup.weight_numeric(pts)))


@pytest.mark.parametrize("setup", [
    symmetric(2, 1), symmetric(2, 2), symmetric(3, 1), symmetric(3, 2),
    hyperoctahedral(2, 1, 2), hyperoctahedral(2, 2, 1), hyperoctahedral(3, 1, 1)],
    ids=lambda s: f"{s.name}{s.m}-{s.mults[0]}-{s.mults[-1]}")
def test_mehta_constant_closed_forms_match_gauss_hermite(setup):
    """The A_{m-1} and B_m products against a rule that shares nothing with
    them; at integer k the weight is a polynomial and the rule is exact."""
    np.testing.assert_allclose(float(mehta_constant(setup)), gauss_hermite_mass(setup),
                               rtol=1e-12)


def test_mehta_constant_a1_at_fractional_k():
    """symmetric(2) factors along (1, -1)/sqrt 2 and (1, 1)/sqrt 2 into
    int e^{-u^2/2} (2 u^2)^k du times sqrt(2 pi)."""
    k = Fraction(1, 3)
    num = (mpmath.quad(lambda u: mpmath.exp(-u * u / 2) * (2 * u * u) ** (mpmath.mpf(1) / 3),
                       [-10, 0, 10]) * mpmath.sqrt(2 * mpmath.pi))
    assert abs(float(mehta_constant(symmetric(2, k))) / float(num) - 1) < 1e-12


def test_mehta_constant_b_without_long_roots_is_the_z2_constant():
    for m in (1, 2, 3):
        for k_s in (Fraction(1, 3), Fraction(3, 2), Fraction(0)):
            assert mehta_constant(hyperoctahedral(m, k_s, 0)) == mehta_constant(z2_power(m, k_s))


def test_mehta_constant_raises_where_the_gaussian_integral_diverges():
    for setup in (symmetric(2, Fraction(-1, 2)), symmetric(3, Fraction(-2, 5)),
                  hyperoctahedral(2, Fraction(-1, 2), Fraction(1, 3)),
                  hyperoctahedral(2, Fraction(1, 4), Fraction(-4, 5)),
                  z2_power(2, [Fraction(-3, 4), Fraction(1, 2)])):
        with pytest.raises(ValueError, match="divergent Gaussian integral"):
            mehta_constant(setup)


def test_norm_constant_matches_inner_product():
    """<psi_t e^{-u}, psi_t e^{-u}> splits as norm_constant times the sphere term."""
    ctx = make_ctx(Fraction(3, 2), Fraction(1, 4), Fraction(1, 2))
    ell = 1
    mg = monogenic_basis(ctx.dk, ell)[0]
    tower = LaguerreTower(ctx, ell, mg)
    sphere = sphere_inner_exact(ctx.dk.setup, mg.bar().mul_expr(mg))
    for t in range(4):
        psi = tower.psi(t)
        got = inner_product_exact(ctx, psi.bar().mul_expr(psi))
        nc = norm_constant(ctx, ell, t)
        for blade, comb in got.items():
            assert (comb - nc * sphere[blade]).is_zero()
        for blade in sphere:
            assert blade in got


def test_inner_product_of_distinct_rungs_vanishes():
    ctx = make_ctx(2, Fraction(1, 3), Fraction(1, 2))
    mg = monogenic_basis(ctx.dk, 1)[0]
    tower = LaguerreTower(ctx, 1, mg)
    got = inner_product_exact(ctx, tower.psi(0).bar().mul_expr(tower.psi(2)))
    assert not got  # all blades cancel


def test_inner_product_divergence_raises():
    # strongly negative b drives the radial exponent below zero
    ctx = make_ctx(2, -8, 0)
    one = RadialExpr.monomial(2, (0, 0))
    x1 = RadialExpr.monomial(2, (1, 0))
    with pytest.raises(ValueError, match="divergent"):
        inner_product_exact(ctx, one.bar().mul_expr(one))
    # an odd integrand has zero sphere moments, but its radial part diverges
    with pytest.raises(ValueError, match="divergent"):
        inner_product_exact(ctx, one.bar().mul_expr(x1))
    with pytest.raises(ValueError, match="a > 0"):
        inner_product_exact(make_ctx(-2, 0, 0), one.bar().mul_expr(one))


def test_norm_constant_raises_where_the_norm_diverges():
    with pytest.raises(ValueError, match="a > 0"):
        norm_constant(make_ctx(-2, 0, 0), 0, 0)
    # gamma_0 = -3/2: |psi_0|^2 diverges at the origin, while |psi_1|^2
    # starts at the radial exponent gamma_0 + a = 1/2 and converges
    ctx = make_ctx(2, 0, -3)
    assert ctx.gamma_ell(0) == Fraction(-3, 2)
    with pytest.raises(ValueError, match="divergent"):
        norm_constant(ctx, 0, 0)
    assert not norm_constant(ctx, 0, 1).is_zero()


# -- the unit-integral memo against the per-term sum ----------------------------

def per_term_integrals(setup, prod, dctx=None):
    """The exact integrals as one ExactScalar product and sum per term, with
    no memo: the sphere moment, times the radial integral when dctx is given,
    times the coefficient, summed blade by blade."""
    ks = axis_multiplicities(setup)
    out = {}
    for (s, mono, blade), coeff in prod.rational_terms():
        if any(e % 2 for e in mono):
            continue
        term = sphere_moment(setup.m, mono, ks)
        if dctx is not None:
            q = 2 * setup.gamma + weight_exponent(dctx) + setup.m + s + sum(mono)
            term = radial_integral(q, dctx.par.a) * term
        term = term * coeff
        out[blade] = out[blade] + term if blade in out else term
    return {blade: comb for blade, comb in out.items() if not comb.is_zero()}


def assert_same_integrals(got, want):
    """Equal values, in the same blade order and with the same printed terms."""
    assert got == want
    assert list(got) == list(want)
    assert [str(c) for c in got.values()] == [str(c) for c in want.values()]


@pytest.mark.parametrize("ks", [(Fraction(1, 2), Fraction(3, 2)),
                                (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2))],
                         ids=["z2^2", "z2^3"])
@pytest.mark.parametrize("abc", [(Fraction(4, 3), Fraction(1, 3), Fraction(1, 2)),
                                 (Fraction(5, 2), Fraction(-1, 5), Fraction(3, 7))],
                         ids=["4/3,1/3,1/2", "5/2,-1/5,3/7"])
@pytest.mark.parametrize("den", [1, 3, 7])
def test_exact_integrals_match_the_per_term_sum(ks, abc, den):
    """Rational coefficients, and ExactScalar ones (powers of a/2 from P),
    on inputs whose radial exponents sit on the lattices 1/1, 1/3 and 1/7."""
    dk = DunklContext(z2_power(len(ks), list(ks)))
    dctx = DeformedContext(dk, DeformParams(*abc))
    rng = random.Random(100 * den + len(ks))
    for _ in range(2):
        f, g = lattice_expr(rng, dk.m, den), lattice_expr(rng, dk.m, den)
        assert f.den == den
        for left in (f, p_map(dctx.par, f)):
            prod = left.bar().mul_expr(g)
            assert_same_integrals(inner_product_exact(dctx, prod),
                                  per_term_integrals(dk.setup, prod, dctx))
            assert_same_integrals(sphere_inner_exact(dk.setup, prod),
                                  per_term_integrals(dk.setup, prod))


def test_memoized_unit_integrals_keep_their_terms_through_a_suite_run(tmp_path):
    """Memo entries are shared: after a second run of the suite that filled
    them (every lookup a hit), each holds exactly the terms it held before."""
    argv = ["orthogonality", "--family", "z2", "--m", "2", "--k", "1/3,1/2",
            "--a", "4/3", "--b", "1/3", "--c", "1/2", "--t-max", "2", "--ell-max", "1"]
    assert main(argv + ["--out", str(tmp_path / "first")]) == 0
    held = {(outer, key): (unit, dict(unit.terms))
            for outer, units in measure._UNITS.items() for key, unit in units.items()}
    assert held
    misses = measure.unit_cache_info()["misses"]
    assert main(argv + ["--out", str(tmp_path / "second")]) == 0
    assert measure.unit_cache_info()["misses"] == misses
    for (outer, key), (unit, terms) in held.items():
        assert measure._UNITS[outer][key] is unit
        assert unit.terms == terms
    assert ((tmp_path / "first" / "orthogonality.jsonl").read_text()
            == (tmp_path / "second" / "orthogonality.jsonl").read_text())
