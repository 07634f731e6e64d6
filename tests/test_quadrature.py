"""Weighted quadrature rules against the closed Gamma-form integrals."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_genlaguerre, roots_jacobi

from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.measure import (
    inner_product_exact,
    radial_integral,
    sphere_moment,
)
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.quadrature import (
    KernelTables,
    _genlaguerre_rule,
    _jacobi_rule,
    circle_rule,
    evaluate,
    integrate_expr,
    residue_classes,
    radial_rule,
    rule_cache_info,
    sphere_rule,
    tensor_rule,
)
from dunkldirac.reflection import hyperoctahedral, symmetric, z2_power

from conftest import random_expr


# -- radial rule ----------------------------------------------------------

def test_radial_rule_reproduces_gamma_integrals():
    for a, lam, exponent in [(2, 2, 3), (2, 1, Fraction(5, 2)),
                             (Fraction(1, 2), 2, 1), (4, 1, Fraction(7, 3))]:
        r, W = radial_rule(a, lam, exponent, 40)
        for extra in (0, 2, 4):
            got = np.sum(W * r ** float(Fraction(a) * extra / 2) * 1.0
                         * r ** 0.0)
            # moment int r^{exponent + a*extra/2} e^{-lam r^a/a} dr, a power
            # of r^a times the base weight, inside the rule's exactness range
            lam_pow = {1: 4, 2: 2, 4: 1}[lam]
            exact = radial_integral(
                Fraction(exponent) + Fraction(a) * extra / 2 + 1, a,
                lam=lam).numeric()
            np.testing.assert_allclose(got, float(exact), rtol=1e-12)


def test_radial_rule_rejects_bad_exponents():
    with pytest.raises(ValueError):
        radial_rule(-1, 2, 0, 10)
    with pytest.raises(ValueError, match="divergent"):
        radial_rule(2, 2, -1, 10)


# -- sphere and circle rules -------------------------------------------------

def test_sphere_rule_m1_is_the_two_point_set():
    dirs, wts = sphere_rule(1, 8)
    assert dirs.shape == (2, 1)
    assert np.all(wts == 1.0)


def test_sphere_rule_total_mass():
    for m, expect in [(2, 2 * np.pi), (3, 4 * np.pi)]:
        dirs, wts = sphere_rule(m, 24)
        np.testing.assert_allclose(np.sum(wts), expect, rtol=1e-12)
        np.testing.assert_allclose(np.sum(dirs * dirs, axis=1), 1.0, rtol=1e-12)


def test_sphere_rule_moments_match_closed_form():
    for m in (2, 3):
        dirs, wts = sphere_rule(m, 24)
        for mono in [(2,) + (0,) * (m - 1), (2, 2) + (0,) * (m - 2)]:
            vals = np.ones(len(dirs))
            for i, e in enumerate(mono):
                vals = vals * dirs[:, i] ** e
            exact = float(sphere_moment(m, mono).numeric())
            np.testing.assert_allclose(np.sum(wts * vals), exact, rtol=1e-12)


def test_sphere_rule_rejects_high_dimension():
    with pytest.raises(ValueError):
        sphere_rule(4, 8)


def test_circle_rule_weighted_moments():
    """Gauss-Jacobi handles half-integer multiplicities exactly."""
    ks = [Fraction(1, 2), Fraction(3, 2)]
    dirs, wts = circle_rule(ks[0], ks[1], 12)
    for mono in [(0, 0), (2, 0), (2, 4), (6, 2)]:
        vals = dirs[:, 0] ** mono[0] * dirs[:, 1] ** mono[1]
        exact = float(sphere_moment(2, mono, ks).numeric())
        np.testing.assert_allclose(np.sum(wts * vals), exact, rtol=1e-12)
    # odd moments vanish by the four-fold mirroring
    odd = dirs[:, 0] ** 1 * dirs[:, 1] ** 2
    assert abs(np.sum(wts * odd)) < 1e-14


# -- grids and evaluation ------------------------------------------------------

def test_weighted_grid_total_mass_is_mehta_like():
    import mpmath
    setup = z2_power(2, [Fraction(1, 2), Fraction(3, 2)])
    _r, W, _dirs, ws = tensor_rule(setup, 2, 1, 0, 40, 40)
    # the integrand is a product f(x) g(y), so the plane integral is a product
    num = (mpmath.quad(lambda x: mpmath.exp(-x * x / 2) * (2 * x * x) ** 0.5, [-8, 0, 8])
           * mpmath.quad(lambda y: mpmath.exp(-y * y / 2) * (2 * y * y) ** 1.5, [-8, 0, 8]))
    np.testing.assert_allclose(W.sum() * ws.sum(), float(num), rtol=1e-10)


def test_evaluate_matches_manual_numpy():
    f = (RadialExpr.monomial(2, (1, 2), Fraction(3), blade=0b1,
                             r_exp=Fraction(-1))
         + RadialExpr.monomial(2, (0, 0), Fraction(1, 2)))
    pts = np.array([[0.5, 1.0], [2.0, -1.0], [0.1, 0.3]])
    vals = evaluate(f, pts)
    r = np.sqrt(np.sum(pts * pts, axis=1))
    np.testing.assert_allclose(vals[:, 0], 0.5)
    np.testing.assert_allclose(
        vals[:, 1], 3.0 * pts[:, 0] * pts[:, 1] ** 2 / r)
    assert not np.any(vals[:, 2:])


# -- residue classes --------------------------------------------------------------

def test_paired_classes_reassemble_the_expression():
    rng = random.Random(23)
    for m, half in [(2, Fraction(1)), (2, Fraction(1, 3)), (1, Fraction(2))]:
        f = RadialExpr(m)
        for _ in range(5):
            mono = tuple(rng.randrange(3) for _ in range(m))
            s = half * rng.randrange(-2, 5) - sum(mono) % 2 * 0  # keep on lattice
            f = f + RadialExpr.monomial(
                m, mono, Fraction(rng.randint(-5, 5)),
                blade=rng.randrange(1 << m), r_exp=s)
        for by_parity in (True, False):
            total = RadialExpr(m)
            for fold, part in residue_classes(f, half, by_parity):
                total = total + part.mul_radial(fold)
            assert total.terms == f.terms


def test_paired_classes_fold_keeps_parts_analytic_in_v_squared():
    """Each part times r^{-fold} must be a series in v^2 = r^{2*half} after
    pairing antipodes: n_v + |mono| stays even within every class."""
    f = (RadialExpr.monomial(2, (1, 0), r_exp=Fraction(1, 2))
         + RadialExpr.monomial(2, (0, 0), r_exp=Fraction(3, 2))
         + RadialExpr.monomial(2, (1, 1)))
    for fold, part in residue_classes(f, Fraction(1, 2)):
        for (s, mono, _b), _c in part.rational_terms():
            n_v = (Fraction(s)) / Fraction(1, 2)
            assert (n_v + sum(mono)) % 2 == 0


# -- full integration -----------------------------------------------------------

def test_integrate_expr_matches_exact_inner_products():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    rng = random.Random(29)
    for a, b, c in [(2, 0, 0), (4, Fraction(1, 2), Fraction(-1, 2))]:
        ctx = DeformedContext(dk, DeformParams(a, b, c))
        f = random_expr(rng, 2, 2)
        g = random_expr(rng, 2, 2)
        exact = inner_product_exact(ctx, f.bar().mul_expr(g))
        from dunkldirac.measure import weight_exponent
        prod = f.bar().mul_expr(g)
        got, _floor = integrate_expr(dk.setup, prod, a, 2,
                                     extra=weight_exponent(ctx), n_r=40, n_ang=48)
        for blade in range(4):
            want = float(exact[blade].numeric()) if blade in exact else 0.0
            np.testing.assert_allclose(got[blade], want, rtol=1e-10,
                                       atol=1e-10)


def test_integrate_expr_handles_m3_and_m1():
    # m = 3 symmetric-group weight: pure Gaussian moment int r^2 e^{-r^2/2}
    setup = symmetric(3, Fraction(0))
    f = RadialExpr.monomial(3, (0, 0, 0), r_exp=2)
    got, _floor = integrate_expr(setup, f, 2, 1, n_r=30, n_ang=30)
    exact = float((radial_integral(5, 2, lam=1)
                   * sphere_moment(3, (0, 0, 0))).numeric())
    np.testing.assert_allclose(got[0], exact, rtol=1e-10)
    # m = 1 picks up the two-point sphere and the line fold: x^2 becomes
    # r^2, so the radial exponent is 2 + 2 gamma + (m - 1) = 3, i.e. Q = 4
    line = z2_power(1, [Fraction(1, 2)])
    f1 = RadialExpr.monomial(1, (2,))
    got1, _floor = integrate_expr(line, f1, 2, 1, n_r=30, n_ang=2)
    exact1 = float((radial_integral(Fraction(4), 2, lam=1)
                    * sphere_moment(1, (0,), [Fraction(1, 2)])).numeric())
    np.testing.assert_allclose(got1[0], exact1, rtol=1e-10)


# -- the tensor rule against the flat product grid ---------------------------------

# z2^2 takes the Jacobi circle rule, B2 the weighted trapezoid, and the two
# m = 3 setups Gauss-Legendre times the trapezoid
RULE_SETUPS = {
    "z2^2": z2_power(2, [Fraction(1, 2), Fraction(3, 2)]),
    "B2": hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3)),
    "z2^3": z2_power(3, [Fraction(1, 2)] * 3),
    "symmetric(3)": symmetric(3, Fraction(1, 3)),
}


def flat_values(expr, pts):
    """expr at each point, one column per blade, one numpy power per factor."""
    out = np.zeros((len(pts), 1 << expr.m))
    r = np.sqrt(np.sum(pts * pts, axis=1))
    for (s, mono, blade), c in expr.rational_terms():
        out[:, blade] += float(c) * r ** float(s) * np.prod(pts ** np.array(mono), axis=1)
    return out


def flat_grid(rule):
    r, W, dirs, ws = rule
    pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])
    return pts, (W[:, None] * ws[None, :]).ravel()


@st.composite
def fractional_exprs(draw, m):
    """Expressions whose radial exponents, multiples of 1/6, fall in several
    residue classes mod every a drawn below."""
    keys = st.tuples(st.integers(0, 15).map(lambda n: Fraction(n, 6)),
                     st.tuples(*[st.integers(0, 3)] * m),
                     st.integers(0, (1 << m) - 1))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    return RadialExpr(m, draw(st.dictionaries(keys, coeffs, min_size=1, max_size=6)))


@st.composite
def setup_and_expr(draw):
    name = draw(st.sampled_from(sorted(RULE_SETUPS)))
    setup = RULE_SETUPS[name]
    return setup, draw(fractional_exprs(setup.m))


@given(case=setup_and_expr(),
       a=st.sampled_from([Fraction(2), Fraction(4, 3), Fraction(2, 3)]),
       lam=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_separable_integral_equals_the_flat_grid_sum(case, a, lam):
    setup, expr = case
    got, _floor = integrate_expr(setup, expr, a, lam, n_r=12, n_ang=10)
    want = np.zeros(1 << setup.m)
    scale = np.zeros(1 << setup.m)
    for fold, part in residue_classes(expr, a / 2, by_parity=False):
        pts, wts = flat_grid(tensor_rule(setup, a, lam, fold, 12, 10))
        vals = flat_values(part, pts)
        want += wts @ vals
        scale += np.abs(wts) @ np.abs(vals)
    # the floor covers cancellation between terms, which no ordering avoids
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale.max())


def test_rules_are_cached_and_read_only():
    setup = RULE_SETUPS["z2^2"]
    first = tensor_rule(setup, Fraction(4, 3), 2, Fraction(1, 3), 14, 9)
    before = rule_cache_info()
    again = tensor_rule(setup, Fraction(4, 3), 2, Fraction(1, 3), 14, 9)
    after = rule_cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert all(x is y for x, y in zip(first, again))
    for arr in first:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_plain_sphere_rule_refuses_a_negative_multiplicity():
    """The plain sphere rule would put an infinite weight on a direction in
    a mirror; a negative k there is refused.  The circle's axis rule and the
    two points of S^0 never meet a mirror, so they keep negative k."""
    for setup in (symmetric(2, Fraction(-1, 4)), z2_power(3, [Fraction(-1, 4)] * 3)):
        with pytest.raises(ValueError, match="negative multiplicity"):
            tensor_rule(setup, 2, 1, 0, 10, 16)
    for setup in (z2_power(2, [Fraction(-1, 4), Fraction(1, 2)]),
                  z2_power(1, [Fraction(-1, 4)])):
        assert np.all(np.isfinite(tensor_rule(setup, 2, 1, 0, 10, 16)[3]))


def test_kernel_tables_contract_through_the_float_view():
    """The real values meet the table's float view; that is the complex
    matmul, to roundoff, with no complex copy of the values."""
    rng = np.random.default_rng(31)
    table = rng.normal(size=(300, 7)) + 1j * rng.normal(size=(300, 7))
    vals = rng.normal(size=(300, 4))
    got = KernelTables().contract("k", lambda: table, vals)
    want = table.T @ vals.astype(complex)
    assert got.shape == (7, 4)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(table).max() * np.abs(vals).sum(0).max()


def test_kernel_tables_keep_the_two_most_recent_builds():
    builds = []

    def build(tag):
        def make():
            builds.append(tag)
            return np.full((3, 2), complex(len(builds), 1))
        return make

    memo = KernelTables()
    vals = np.ones((3, 1))
    for key in ["a", "b", "a", "b", "c", "b", "a"]:
        memo.contract(key, build(key), vals)
    # "c" drops "a", the older build, although "a" was found after "b"
    assert builds == ["a", "b", "c", "a"]
    assert (memo.hits, memo.misses) == (3, 4)
    for table in memo.tables.values():
        assert table.flags.c_contiguous and not table.flags.writeable


# -- the Golub-Welsch rules against scipy.special ---------------------------------

GW_ORDERS = (1, 2, 20, 60, 120)
GW_ALPHAS = (-0.5, 0.0, 1 / 3, 3.5)
# equal pairs (Chebyshev at -1/2, Gegenbauer), both zero (Legendre), unequal
JACOBI_PAIRS = [(al, al) for al in GW_ALPHAS] + [
    (al, be) for al in GW_ALPHAS for be in GW_ALPHAS if al != be]


@pytest.mark.parametrize("n", GW_ORDERS)
def test_genlaguerre_rule_is_scipys(n):
    for alpha in GW_ALPHAS:
        x, w = _genlaguerre_rule(n, alpha)
        want_x, want_w = roots_genlaguerre(n, alpha)
        np.testing.assert_allclose(x, want_x, rtol=1e-13, atol=0)
        np.testing.assert_allclose(w, want_w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", GW_ORDERS)
def test_jacobi_rule_is_scipys(n):
    for a, b in JACOBI_PAIRS:
        x, w = _jacobi_rule(n, a, b)
        want_x, want_w = roots_jacobi(n, a, b)
        np.testing.assert_allclose(x, want_x, rtol=1e-13, atol=0)
        np.testing.assert_allclose(w, want_w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", GW_ORDERS)
def test_golub_welsch_rules_are_exact_through_degree_2n_minus_1(n):
    """(x / 4n)^{2n-1} against x^alpha e^{-x}, and ((1 + x) / 2)^{2n-1}
    against (1 - x)^a (1 + x)^b: positive integrands of degree 2n - 1, scaled
    so that no power overflows, against their closed moments in mpmath.  The
    outer nodes sit about 1/n^2 apart, so the moments carry n^2 eps."""
    import mpmath
    rtol = 8 * n * n * np.finfo(float).eps
    with mpmath.workdps(30):
        for alpha in GW_ALPHAS:
            x, w = _genlaguerre_rule(n, alpha)
            want = mpmath.gamma(2 * n + mpmath.mpf(alpha)) / mpmath.mpf(4 * n) ** (2 * n - 1)
            np.testing.assert_allclose(np.sum(w * (x / (4 * n)) ** (2 * n - 1)),
                                       float(want), rtol=rtol)
        for a, b in JACOBI_PAIRS:
            x, w = _jacobi_rule(n, a, b)
            want = 2 ** (mpmath.mpf(a) + b + 1) * mpmath.beta(mpmath.mpf(a) + 1, b + 2 * n)
            np.testing.assert_allclose(np.sum(w * ((1 + x) / 2) ** (2 * n - 1)),
                                       float(want), rtol=rtol)


def test_golub_welsch_rules_reject_what_scipy_rejects():
    """The messages are scipy's, since suites write them into excluded rows."""
    with pytest.raises(ValueError, match="n must be a positive integer"):
        _genlaguerre_rule(0, 0.5)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        _jacobi_rule(0, 0.5, 0.5)
    with pytest.raises(ValueError, match="alpha and beta must be greater than -1"):
        _jacobi_rule(4, -1.0, 0.5)
