"""Acceptance battery: one test per advertised guarantee of the library.

The unit files cover the same ground piecewise; each test here states a
complete property end to end and checks it the expensive way, with random
parameter tuples, full monomial-times-blade input spans, and numeric
cross-checks against closed-form constants.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from dunkldirac.deformed import (
    DeformedContext,
    factorization_solutions_generic,
    factorization_solutions_zero_k,
)
from dunkldirac.dunkl import DunklContext
from dunkldirac.dunkltransform import eigenfunction, eigenvalue, transform_values
from dunkldirac.fischer import harmonic_basis, monogenic_basis
from dunkldirac.fourier import (
    damped_values,
    fourier_apply,
    measured_eigenvalue,
    pde_residual,
    spectral_eigenvalue,
)
from dunkldirac.kelvin import (
    dirac_via_inversion,
    intertwined_component,
    inversion,
    inversion_params,
    p_map,
    pq_constant,
    q_map,
)
from dunkldirac.laguerre import LaguerreTower, laguerre_poly
from dunkldirac.measure import norm_constant, sphere_inner_exact, weight_exponent
from dunkldirac.params import DeformParams
from dunkldirac.quadrature import evaluate, integrate_expr
from dunkldirac.reflection import symmetric, z2_power

from conftest import monomial_inputs, rand_fraction


def rand_k(rng):
    return rand_fraction(rng, 0, 2, max_den=4)


def random_params(rng, on_line=False):
    """a in (0, 4], b in [-2, 2], and either random c != -1 or c = 2/a - 1."""
    den = rng.randint(1, 3)
    a = Fraction(rng.randint(1, 4 * den), den)
    b = rand_fraction(rng, -2, 2)
    if on_line:
        return DeformParams(a, b, Fraction(2) / a - 1)
    c = rand_fraction(rng, -2, 2)
    while c == -1:
        c = rand_fraction(rng, -2, 2)
    return DeformParams(a, b, c)


def annulus_points(nprng, n, lo=0.5, hi=1.5):
    pts = []
    while len(pts) < n:
        p = nprng.uniform(-hi, hi, size=2)
        if lo < np.hypot(*p) < hi:
            pts.append(p)
    return np.array(pts)


# -- superalgebra relations -------------------------------------------------

def test_osp_relations_hold_for_random_tuples_across_groups():
    """All eight bracket relations, exactly, for twenty random (a, b, c)
    tuples spread over three reflection groups with random multiplicities,
    on every monomial-times-blade input of degree <= 3.  Under a minute."""
    rng = random.Random(101)
    start = time.perf_counter()
    setups = (
        [z2_power(2, [rand_k(rng), rand_k(rng)]) for _ in range(8)]
        + [z2_power(3, [rand_k(rng) for _ in range(3)]) for _ in range(6)]
        + [symmetric(3, rand_k(rng)) for _ in range(6)]
    )
    inputs = {m: monomial_inputs(m, 3) for m in (2, 3)}
    for setup in setups:
        par = random_params(rng)
        dctx = DeformedContext(DunklContext(setup), par)
        for f in inputs[setup.m]:
            report = dctx.osp_relations_report(f)
            assert len(report) == 8
            bad = [name for name, defect in report.items()
                   if not defect.is_zero()]
            assert not bad, (par, bad)
    assert time.perf_counter() - start < 60.0


# -- factorization classification -------------------------------------------

def test_factorization_classifier_matches_direct_computation():
    """The classifier's tuples are exactly the ones whose component squares
    sum to the weighted Laplacian, at zero multiplicity for m in {2, 3} and
    at generic multiplicity; a perturbed tuple fails."""
    rng = random.Random(202)

    def signatures(sols):
        return {(p.a, p.b, p.c) for p in sols}

    assert signatures(factorization_solutions_zero_k(2)) == {
        (2, 0, 0), (-2, 0, -2)}
    assert signatures(factorization_solutions_zero_k(3)) == {
        (2, 0, 0), (6, 1, 0), (-6, 0, -2), (-2, -1, -2)}

    for m in (2, 3):
        inputs = monomial_inputs(m, 3)
        dk0 = DunklContext(z2_power(m, [Fraction(0)] * m))
        for par in factorization_solutions_zero_k(m):
            dctx = DeformedContext(dk0, par)
            assert all(dctx.factorization_defect(f).is_zero() for f in inputs)

        ks = [rand_fraction(rng, Fraction(1, 4), 2, max_den=4)
              for _ in range(m)]
        dk = DunklContext(z2_power(m, ks))
        mu = dk.setup.mu
        generic = factorization_solutions_generic(mu)
        assert signatures(generic) == {(2, 0, 0), (-2, 2 - mu, -2)}
        for par in generic:
            dctx = DeformedContext(dk, par)
            assert all(dctx.factorization_defect(f).is_zero() for f in inputs)

        nudged = DeformParams(generic[1].a, generic[1].b + Fraction(1, 7),
                              generic[1].c)
        off = DeformedContext(dk, nudged)
        assert any(not off.factorization_defect(f).is_zero() for f in inputs)


# -- commutativity boundary --------------------------------------------------

def test_components_commute_exactly_on_the_boundary_line():
    """[D_1, D_2] vanishes on every degree <= 3 input iff c = 2/a - 1,
    for a in {2, 4, 2/3}, with an explicit witness off the line."""
    rng = random.Random(303)
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 3)]))
    inputs = monomial_inputs(2, 3)
    for a in (Fraction(2), Fraction(4), Fraction(2, 3)):
        line = Fraction(2) / a - 1
        b = rand_fraction(rng, -2, 2)
        on = DeformedContext(dk, DeformParams(a, b, line))
        assert all(on.commute_defect(1, 2, f).is_zero() for f in inputs)

        shift = rng.choice([Fraction(1, 2), Fraction(1), Fraction(-1, 3)])
        while line + shift == -1:
            shift += Fraction(1, 5)
        off = DeformedContext(dk, DeformParams(a, b, line + shift))
        witness = next((f for f in inputs
                        if not off.commute_defect(1, 2, f).is_zero()), None)
        assert witness is not None, (a, line + shift)


# -- Laguerre closed form -----------------------------------------------------

def classical_laguerre(n, alpha):
    """Coefficient list of L_n^alpha from the bare three-term recurrence."""
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [1 + alpha, Fraction(-1)]
    for k in range(1, n):
        shifted = [Fraction(0)] + cur
        nxt = [(2 * k + 1 + alpha) * c - s
               for c, s in zip(cur + [Fraction(0)], shifted)]
        for i, p in enumerate(prev):
            nxt[i] -= (k + alpha) * p
        cur, prev = [c / (k + 1) for c in nxt], cur
    return cur


def test_laguerre_recursion_matches_closed_form():
    """psi_t from the raising recursion equals the closed Laguerre form for
    t <= 6 and ell <= 3 over ten random parameter tuples, and the radial
    polynomial is the classical one-variable L_n^alpha coefficientwise."""
    rng = random.Random(404)
    for _ in range(10):
        dk = DunklContext(z2_power(2, [rand_k(rng), rand_k(rng)]))
        par = random_params(rng)
        dctx = DeformedContext(dk, par)
        for ell in range(4):
            tower = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
            for t in range(7):
                diff = tower.psi(t) - tower.psi_closed(t)
                assert diff.is_zero(), (par, ell, t)
            g_over_a = dctx.gamma_ell(ell) / par.a
            for alpha in (g_over_a - 1, g_over_a):
                for n in range(4):
                    assert laguerre_poly(n, alpha) == classical_laguerre(n, alpha)


# -- lowering and oscillator ---------------------------------------------------

def test_lowering_and_oscillator_actions():
    """Ladder behavior for t <= 4 and ell <= 2 at random parameters: the
    operator lowers each rung by the advertised constant, the damped square
    realizes the oscillator spectrum, and [D, x_a] acts on rungs by a
    scalar, all exactly."""
    rng = random.Random(505)
    for _ in range(8):
        dk = DunklContext(z2_power(2, [rand_k(rng), rand_k(rng)]))
        par = random_params(rng)
        dctx = DeformedContext(dk, par)
        one_c = 1 + par.c
        for ell in range(3):
            tower = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
            for t in range(5):
                psi = tower.psi(t)
                lowered = dctx.dirac(psi)
                if t == 0:
                    assert lowered.is_zero()
                else:
                    want = tower.psi(t - 1).scale(tower.step_constant(t))
                    assert (lowered - want).is_zero(), (par, ell, t)

                twice = dctx.dirac_on_damped(dctx.dirac_on_damped(psi))
                osc = twice - dctx.x_a(dctx.x_a(psi)).scale(one_c ** 2)
                assert (osc - psi.scale(tower.oscillator_constant(t))).is_zero()

                comm = dctx.dirac(dctx.x_a(psi)) - dctx.x_a(dctx.dirac(psi))
                eig = (tower.step_constant(t) - tower.step_constant(t + 1)) \
                    / (2 * one_c)
                assert (comm - psi.scale(eig)).is_zero(), (par, ell, t)


# -- orthogonality under quadrature --------------------------------------------

def gram_check(dctx, t_max, ell_max, tol_diag, tol_off, n_r, n_ang):
    """Numeric Gram matrix of the damped tower functions against the closed
    norm constants: relative on the diagonal, scaled absolute off it."""
    setup = dctx.dk.setup
    eh = weight_exponent(dctx)
    funcs = []
    for ell in range(ell_max + 1):
        mono = monogenic_basis(dctx.dk, ell)[0]
        tower = LaguerreTower(dctx, ell, mono)
        sphere = sphere_inner_exact(setup, mono.bar().mul_expr(mono))
        for t in range(t_max + 1):
            ref = np.zeros(1 << setup.m)
            for blade, comb in sphere.items():
                ref[blade] = float(norm_constant(dctx, ell, t) * comb)
            funcs.append((tower.psi(t), ref))
    for i, (f, ref_i) in enumerate(funcs):
        for j in range(i, len(funcs)):
            g, ref_j = funcs[j]
            num, _floor = integrate_expr(setup, f.bar().mul_expr(g), dctx.par.a, 2,
                                         extra=eh, n_r=n_r, n_ang=n_ang)
            if i == j:
                err = np.abs(num - ref_i).max() / np.abs(ref_i).max()
                assert err <= tol_diag, (dctx.par, i, err)
            else:
                scale = math.sqrt(np.abs(ref_i).max() * np.abs(ref_j).max())
                assert np.abs(num).max() <= tol_off * scale, (dctx.par, i, j)


def test_orthogonality_of_tower_functions_under_quadrature():
    """Quadrature reproduces <phi_{t,ell}, phi_{s,ell'}> = c(t, ell) times
    the double delta: diagonal to 1e-8 relative and cross terms at 1e-10
    scaled for t, s <= 3 and ell, ell' <= 2 with a in {2, 4} and b in
    {0, 1/2}; a sign-flip weighted run passes at 1e-6.  Under two minutes."""
    start = time.perf_counter()
    dk0 = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    for a in (Fraction(2), Fraction(4)):
        for b in (Fraction(0), Fraction(1, 2)):
            par = DeformParams(a, b, Fraction(2) / a - 1)
            gram_check(DeformedContext(dk0, par), 3, 2, 1e-8, 1e-10, 32, 40)
    dkw = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    parw = DeformParams(Fraction(2), Fraction(0), Fraction(0))
    gram_check(DeformedContext(dkw, parw), 3, 2, 1e-6, 1e-6, 32, 40)
    assert time.perf_counter() - start < 120.0


# -- transform eigenvalues and kernel equations ---------------------------------

def test_fourier_eigenvalues_and_kernel_equations():
    """Quadrature against the closed kernel reproduces the (-i)^{t+ell}
    spectrum to 1e-6 relative for a in {2, 4} and t + ell <= 4, and the
    kernel satisfies its defining first-order system to 1e-10 at a
    hundred random point pairs."""
    nprng = np.random.default_rng(707)
    dk0 = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    targets = annulus_points(nprng, 6)
    for a in (Fraction(2), Fraction(4)):
        par = DeformParams(a, Fraction(0), Fraction(2) / a - 1)
        dctx = DeformedContext(dk0, par)
        for ell in range(5):
            tower = LaguerreTower(dctx, ell, monogenic_basis(dk0, ell)[0])
            for t in range(5 - ell):
                psi = tower.psi(t)
                got = fourier_apply(dctx, psi, targets)
                ref = damped_values(dctx, psi, targets)
                lam, resid = measured_eigenvalue(ref, got)
                want = spectral_eigenvalue(par, ell, t)
                assert resid < 1e-6, (a, t, ell, resid)
                assert abs(lam - want) < 1e-6
                assert abs(want - (-1j) ** ((t + ell) % 4)) < 1e-12

    for a, b in ((Fraction(2), Fraction(0)), (Fraction(2), Fraction(1, 2)),
                 (Fraction(4), Fraction(0)), (Fraction(4), Fraction(1, 2))):
        par = DeformParams(a, b, Fraction(2) / a - 1)
        X = annulus_points(nprng, 100, lo=0.3, hi=1.7)
        Y = annulus_points(nprng, 100, lo=0.3, hi=1.7)
        assert pde_residual(par, X, Y) <= 1e-10, (a, b)


# -- substitution and inversion machinery ----------------------------------------

def test_kelvin_inversion_and_intertwining():
    """P and Q compose to (2/a)^{b/2} both ways, Q T_i P matches the
    deformed components, the inversion squares to the identity, and
    conjugating the Dunkl Dirac operator by it lands on the a = -2 member,
    all exactly on degree <= 3 inputs for ten random tuples."""
    rng = random.Random(808)
    for trial in range(10):
        m = 3 if trial % 4 == 0 else 2
        if trial % 2:
            setup = symmetric(m, rand_k(rng))
        else:
            setup = z2_power(m, [rand_k(rng) for _ in range(m)])
        dk = DunklContext(setup)
        par = random_params(rng, on_line=True)
        dctx = DeformedContext(dk, par)
        const = pq_constant(par)
        inv_ctx = DeformedContext(dk, inversion_params(setup.mu))
        for f in monomial_inputs(m, 3):
            assert q_map(par, p_map(par, f)) == f.scale(const)
            assert p_map(par, q_map(par, f)) == f.scale(const)
            for i in range(1, m + 1):
                assert intertwined_component(dctx, i, f) \
                    == dctx.dirac_component(i, f)
            assert inversion(dk, inversion(dk, f)) == f
            assert dirac_via_inversion(dk, f) == inv_ctx.dirac(f)


# -- kernel series oracle ----------------------------------------------------------

def test_dunkl_kernel_series_and_eigen_probe():
    """The order-6 kernel series solves its defining system with zero
    residual, collapses to the exponential's Taylor slices at zero
    multiplicity, and the series transform sends Laguerre-harmonic
    eigenfunctions to (-i)^{2j+ell} times themselves within 1e-4."""
    dkw = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 3)]))
    series = dkw.kernel_series(6)
    assert len(series) == 7
    assert dkw.verify_kernel_series(series)

    dk0 = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    for n, level in enumerate(dk0.kernel_series(6)):
        expect = {}
        for i in range(n + 1):
            mono = (i, n - i)
            expect[(mono, mono)] = Fraction(math.comb(n, i), math.factorial(n))
        assert level == expect

    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    nprng = np.random.default_rng(909)
    targets = annulus_points(nprng, 5, lo=0.3, hi=1.2)
    for j in (0, 1):
        for ell in (0, 1):
            h = harmonic_basis(dk, ell)[0]
            f = eigenfunction(dk, j, ell, h)
            got = transform_values(dk, f, targets, order=24, n_r=50, n_ang=48)
            r2 = np.sum(targets * targets, axis=1)
            ref = evaluate(f, targets) * np.exp(-r2 / 2)[:, None]
            lam, resid = measured_eigenvalue(ref, got)
            assert resid < 1e-4, (j, ell, resid)
            assert abs(lam - eigenvalue(j, ell)) < 1e-4
