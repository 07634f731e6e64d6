"""The closed kernel (trivial reflection weight), and the transform at k = 0."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.dunkltransform import deformed_transform
from dunkldirac.fischer import monogenic_basis
from dunkldirac.fourier import (
    damped_values,
    kernel_constant,
    kernel_values,
    measured_eigenvalue,
    pde_residual,
    spectral_eigenvalue,
)
from dunkldirac.laguerre import LaguerreTower
from dunkldirac.measure import weight_exponent
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.quadrature import residue_classes, tensor_rule
from dunkldirac.reflection import hyperoctahedral, symmetric, z2_power


def make_ctx(a, b):
    dk = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    return DeformedContext(dk, DeformParams.commuting(a, b))


def sample_points(rng, n, lo=0.3, hi=1.4):
    pts = []
    while len(pts) < n:
        p = [rng.uniform(-hi, hi) for _ in range(2)]
        if lo < np.hypot(*p) < hi:
            pts.append(p)
    return np.array(pts)


# -- kernel ---------------------------------------------------------------

def test_kernel_at_a_two_is_the_plane_wave():
    par = DeformParams.commuting(2, 0)
    X = np.array([[0.3, 0.5], [1.0, -0.2]])
    Y = np.array([[0.7, 0.1], [-0.4, 0.9]])
    got = kernel_values(par, X, Y)
    expect = (2 * np.pi) ** -1 * np.exp(-1j * np.sum(X * Y, axis=1))
    np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_kernel_values_manual_formula():
    par = DeformParams.commuting(4, Fraction(1, 2))
    X = np.array([[0.6, 0.8]])
    Y = np.array([[0.3, -0.4]])
    rx, ry = 1.0, 0.5
    a, b = 4.0, 0.5
    u = -2j / a * (0.6 * 0.3 - 0.8 * 0.4) * (rx * ry) ** (a / 2 - 1)
    expect = kernel_constant(par, 2) * (rx * ry) ** (-a * b / 2) * np.exp(u)
    np.testing.assert_allclose(kernel_values(par, X, Y), [expect], rtol=1e-14)


def test_kernel_gates_on_the_commuting_line():
    with pytest.raises(ValueError):
        kernel_values(DeformParams(4, 0, 1), np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError):
        kernel_constant(DeformParams(4, 0, 1), 2)


def test_pde_residual_is_roundoff():
    rng = random.Random(20260816)
    X = sample_points(rng, 60)
    Y = sample_points(rng, 60)
    assert pde_residual(DeformParams.commuting(2, 0), X, Y) == 0.0
    for a, b in [(4, Fraction(1, 2)), (Fraction(2, 3), Fraction(-1, 4))]:
        assert pde_residual(DeformParams.commuting(a, b), X, Y) < 1e-12


def fd_equation_residual(eq_par, kernel_par, X, Y, h=1e-6):
    """Residual of eq_par's defining equations on kernel_par's kernel.

    Gradients come from central differences, so the whole check is
    independent of the closed derivative formulas inside pde_residual.
    """
    a, b = float(eq_par.a), float(eq_par.b)
    rx = np.sqrt(np.sum(X * X, axis=1, keepdims=True))
    ry = np.sqrt(np.sum(Y * Y, axis=1, keepdims=True))
    K = kernel_values(kernel_par, X, Y)[:, None]
    grad = np.zeros(X.shape, dtype=complex)
    for j in range(X.shape[1]):
        dp, dm = X.copy(), X.copy()
        dp[:, j] += h
        dm[:, j] -= h
        grad[:, j] = (kernel_values(kernel_par, dp, Y)
                      - kernel_values(kernel_par, dm, Y)) / (2 * h)
    drK = np.sum(X * grad, axis=1, keepdims=True) / rx
    lhs = (rx ** (1 - a / 2) * grad + b * rx ** (-1 - a / 2) * X * K
           + (2 / a - 1) * rx ** (-a / 2) * X * drK)
    rhs = -2j / a * Y * ry ** (a / 2 - 1) * K
    return float(np.abs(lhs - rhs).max() / np.abs(rhs).max())


def test_pde_residual_detects_a_wrong_kernel():
    """The b-shifted kernel must visibly fail the original equations."""
    rng = random.Random(5)
    X = sample_points(rng, 20)
    Y = sample_points(rng, 20)
    good = DeformParams.commuting(4, Fraction(1, 2))
    wrong = DeformParams.commuting(4, 1)
    assert fd_equation_residual(good, good, X, Y) < 1e-7
    assert fd_equation_residual(good, wrong, X, Y) > 1e-2


# -- spectral data -----------------------------------------------------------

def test_spectral_eigenvalue_reduces_to_quarter_turns():
    par = DeformParams.commuting(2, 0)
    for ell in range(3):
        for t in range(4):
            got = spectral_eigenvalue(par, ell, t)
            np.testing.assert_allclose(got, (-1j) ** (t + ell), rtol=1e-12)


def test_spectral_eigenvalue_general_a():
    par = DeformParams.commuting(Fraction(2, 3), 0)
    got = spectral_eigenvalue(par, 1, 0)
    expect = np.exp(-1j * np.pi / (2.0 / 3.0 * (1 + 2.0)))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


# -- the transform ------------------------------------------------------------

def test_eigenfunctions_of_the_classical_transform():
    """At (2, 0): psi_t e^{-r^2/2} maps to (-i)^{t+ell} times itself."""
    ctx = make_ctx(2, 0)
    rng = random.Random(31)
    targets = sample_points(rng, 6)
    for ell in (0, 1):
        mg = monogenic_basis(ctx.dk, ell)[0]
        tower = LaguerreTower(ctx, ell, mg)
        for t in range(3):
            psi = tower.psi(t)
            got = deformed_transform(ctx, psi, targets, n_r=100, n_ang=120)
            ref = damped_values(ctx, psi, targets)
            lam, resid = measured_eigenvalue(ref, got)
            assert resid < 1e-10
            np.testing.assert_allclose(
                lam, spectral_eigenvalue(ctx.par, ell, t), rtol=1e-10)


def test_eigenfunctions_at_fractional_a():
    ctx = make_ctx(Fraction(2, 3), Fraction(1, 4))
    rng = random.Random(37)
    targets = sample_points(rng, 5)
    mg = monogenic_basis(ctx.dk, 1)[0]
    tower = LaguerreTower(ctx, 1, mg)
    for t in range(2):
        psi = tower.psi(t)
        got = deformed_transform(ctx, psi, targets, n_r=100, n_ang=120)
        ref = damped_values(ctx, psi, targets)
        lam, resid = measured_eigenvalue(ref, got)
        assert resid < 1e-8
        np.testing.assert_allclose(
            lam, spectral_eigenvalue(ctx.par, 1, t), rtol=1e-8)


def test_transform_intertwines_the_operator_with_multiplication():
    """F(D phi) = i (1+c) x_a F(phi) pointwise at the targets.

    Checked on a damped rung where both sides are exact eigen-multiples.
    """
    ctx = make_ctx(2, 0)
    rng = random.Random(41)
    targets = sample_points(rng, 5)
    mg = monogenic_basis(ctx.dk, 1)[0]
    tower = LaguerreTower(ctx, 1, mg)
    t = 2
    psi = tower.psi(t)
    # D (psi_t e^{-u}) = (dirac_on_damped psi_t) e^{-u}
    dpsi = ctx.dirac_on_damped(psi)
    lhs = deformed_transform(ctx, dpsi, targets, n_r=100, n_ang=120)
    # right side: i (1+c) x_a F(psi), with F(psi) = lam psi e^{-u} at the
    # targets, so x_a F(psi) = lam (x_a psi) e^{-u}
    lam, resid = measured_eigenvalue(damped_values(ctx, psi, targets),
                                     deformed_transform(ctx, psi, targets, n_r=100,
                                                        n_ang=120))
    assert resid < 1e-8
    one_c = float(1 + ctx.par.c)
    rhs = 1j * one_c * lam * damped_values(ctx, ctx.x_a(psi), targets)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


# the closed kernel is the trivial weight's, so each setup has k = 0
FLAT_CONTEXTS = [DunklContext(setup) for setup in (
    z2_power(2, Fraction(0)), hyperoctahedral(2, Fraction(0), Fraction(0)),
    z2_power(3, Fraction(0)), symmetric(3, Fraction(0)))]


def flat_fourier(dctx, psi, targets, n_r, n_ang):
    """The k = 0 transform as a sum over the flattened product grid: every
    node's values and closed-kernel phases computed pointwise, then one
    three-operand einsum."""
    par, setup = dctx.par, dctx.dk.setup
    a, b = float(par.a), float(par.b)
    r_tgt = np.sqrt(np.sum(targets * targets, axis=1))
    out = np.zeros((len(targets), 1 << setup.m), dtype=complex)
    scale = np.zeros(len(targets))
    for fold, part in residue_classes(psi, par.a / 2):
        r, W, dirs, ws = tensor_rule(
            setup, par.a, 1, weight_exponent(dctx) - par.a * par.b / 2 + fold, n_r, n_ang)
        pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, setup.m)
        wts = (W[:, None] * ws[None, :]).ravel()
        r_pts = np.sqrt(np.sum(pts * pts, axis=1))
        vals = np.zeros((len(pts), 1 << setup.m))
        for (s, mono, blade), c in part.rational_terms():
            vals[:, blade] += float(c) * r_pts ** float(s) * np.prod(pts ** np.array(mono), axis=1)
        phases = np.exp(-2j / a * (pts @ targets.T)
                        * np.outer(r_pts ** (a / 2 - 1), r_tgt ** (a / 2 - 1)))
        out += np.einsum("p,pb,pt->tb", wts, vals, phases)
        scale += np.abs(wts) @ np.abs(vals).sum(axis=1)
    post = kernel_constant(par, setup.m) * r_tgt ** (-a * b / 2)
    return out * post[:, None], scale * post


@st.composite
def flat_case(draw):
    dk = draw(st.sampled_from(FLAT_CONTEXTS))
    keys = st.tuples(st.integers(0, 12).map(lambda n: Fraction(n, 6)),
                     st.tuples(*[st.integers(0, 3)] * dk.m),
                     st.integers(0, (1 << dk.m) - 1))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    psi = RadialExpr(dk.m, draw(st.dictionaries(keys, coeffs, min_size=1, max_size=5)))
    return dk, psi


@given(case=flat_case(),
       a=st.sampled_from([Fraction(2), Fraction(4, 3), Fraction(2, 3)]),
       b=st.sampled_from([Fraction(0), Fraction(1, 4)]))
@settings(max_examples=30, deadline=None)
def test_deformed_transform_equals_the_flat_grid_sum(case, a, b):
    """Radial exponents in steps of 1/6 give psi several residue classes."""
    dk, psi = case
    ctx = DeformedContext(dk, DeformParams.commuting(a, b))
    targets = np.random.default_rng(47).uniform(-1.2, 1.2, size=(4, dk.m))
    got = deformed_transform(ctx, psi, targets, n_r=12, n_ang=10)
    want, scale = flat_fourier(ctx, psi, targets, 12, 10)
    # the floor covers cancellation between nodes, which no ordering avoids
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale.max())


def test_measured_eigenvalue_recovers_planted_scalar():
    rng = np.random.default_rng(43)
    ref = rng.normal(size=12) + 1j * rng.normal(size=12)
    lam, resid = measured_eigenvalue(ref, (0.3 - 0.7j) * ref)
    np.testing.assert_allclose(lam, 0.3 - 0.7j, rtol=1e-14)
    assert resid < 1e-14
