"""Series transform with nontrivial reflection weight, and the a = -2 routes."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.dunkltransform import (
    _series_kernel,
    deformed_transform,
    eigenfunction,
    eigenvalue,
    inverted_damped_values,
    kernel_matrix,
    normalization,
    transform_inverted,
    transform_inverted_direct,
    transform_values,
)
from dunkldirac.fischer import harmonic_basis, monogenic_basis
from dunkldirac.fourier import damped_values, fourier_apply, measured_eigenvalue
from dunkldirac.laguerre import LaguerreTower
from dunkldirac.measure import mehta_constant
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.quadrature import KernelTables
from dunkldirac.reflection import hyperoctahedral, z2_power


def sample_points(rng, n, lo=0.3, hi=1.2):
    pts = []
    while len(pts) < n:
        p = [rng.uniform(-hi, hi) for _ in range(2)]
        if lo < np.hypot(*p) < hi:
            pts.append(p)
    return np.array(pts)


def test_kernel_matrix_at_zero_multiplicity_is_exp_taylor():
    dk = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    rng = random.Random(3)
    X = sample_points(rng, 4)
    Y = sample_points(rng, 4)
    order = 24
    got = kernel_matrix(dk, X, Y, order)
    dots = X @ Y.T
    expect = sum((-1j * dots) ** n / math.factorial(n) for n in range(order + 1))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_kernel_matrix_truncation_converges():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    rng = random.Random(5)
    X = sample_points(rng, 3)
    Y = sample_points(rng, 3)
    low = kernel_matrix(dk, X, Y, 16)
    high = kernel_matrix(dk, X, Y, 28)
    np.testing.assert_allclose(low, high, atol=1e-9)


@pytest.mark.parametrize("ks", [
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(1, 3), Fraction(0)),
    (Fraction(1, 3), Fraction(2), Fraction(0)),
])
def test_series_route_matches_the_bessel_product(ks):
    """The series, which sign-flip groups no longer take, against the closed
    product they do take; rows include a point on an axis and a zero target."""
    m = len(ks)
    dk = DunklContext(z2_power(m, list(ks)))
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, size=(6, m)) / np.sqrt(m)
    Y = rng.uniform(-1, 1, size=(5, m)) / np.sqrt(m)
    X[0, 1:] = 0
    Y[0] = 0
    series = _series_kernel(dk, X, Y, 20)
    np.testing.assert_allclose(series, kernel_matrix(dk, X, Y, 20), rtol=1e-12)


def test_b2_kernel_is_symmetric_and_converges():
    """Off the axes the series route runs: E(x, y) = E(y, x) from two calls on
    fresh arrays of the same shape, and order 16 already agrees with 28."""
    dk = DunklContext(hyperoctahedral(2, 1, 2))
    rng = random.Random(23)
    U = sample_points(rng, 5)
    V = sample_points(rng, 5)
    high = kernel_matrix(dk, U, V, 28)
    swapped = kernel_matrix(dk, V.copy(), U.copy(), 28)
    np.testing.assert_allclose(swapped.T, high, rtol=1e-12)
    np.testing.assert_allclose(kernel_matrix(dk, U, V, 16), high, atol=1e-9)


def test_normalization_matches_the_closed_constant():
    setup = z2_power(2, [Fraction(1, 2), Fraction(3, 2)])
    exact = float(mehta_constant(setup).numeric())
    np.testing.assert_allclose(normalization(setup), exact, rtol=1e-12)


def test_normalization_is_closed_for_off_axis_groups():
    from dunkldirac.reflection import symmetric
    import mpmath
    setup = symmetric(2, Fraction(1))
    got = normalization(setup)
    # weight (root (1,-1), <a,a> = 2): (x1 - x2)^2
    num = mpmath.quad(
        lambda x, y: mpmath.exp(-(x * x + y * y) / 2) * (x - y) ** 2,
        [-8, 8], [-8, 8])
    np.testing.assert_allclose(got, float(num), rtol=1e-10)


def test_transform_eigenfunctions_small_battery():
    """L_j^{mu/2+ell-1}(r^2) H_ell e^{-r^2/2} maps to (-i)^{2j+ell} itself."""
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    rng = random.Random(7)
    targets = sample_points(rng, 5)
    for j in (0, 1):
        for ell in (0, 1):
            h = harmonic_basis(dk, ell)[0]
            f = eigenfunction(dk, j, ell, h)
            got = transform_values(dk, f, targets, order=28)
            r2 = np.sum(targets * targets, axis=1)
            from dunkldirac.quadrature import evaluate
            ref = evaluate(f, targets) * np.exp(-r2 / 2)[:, None]
            lam, resid = measured_eigenvalue(ref, got)
            assert resid < 1e-8
            np.testing.assert_allclose(lam, eigenvalue(j, ell), atol=1e-8)


def test_eigenvalue_formula():
    assert eigenvalue(0, 0) == 1
    assert eigenvalue(0, 1) == -1j
    assert eigenvalue(1, 0) == -1
    assert eigenvalue(1, 1) == 1j


def test_a_minus2_routes_agree():
    """Inversion route vs direct substituted integral, plus the eigen-relation.

    The eigenfunctions here are the inversion images of the a = 2 ones,
    carrying e^{-1/(2 r^2)} damping instead of the Gaussian.
    """
    from dunkldirac.kelvin import inversion
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    rng = random.Random(11)
    targets = sample_points(rng, 4, lo=0.5, hi=1.1)
    for j, ell in [(0, 0), (0, 1), (1, 0)]:
        h = harmonic_basis(dk, ell)[0]
        g = inversion(dk, eigenfunction(dk, j, ell, h))
        via_inversion = transform_inverted(dk, g, targets, order=28)
        direct = transform_inverted_direct(dk, g, targets, order=28)
        scale = np.abs(via_inversion).max()
        assert np.abs(via_inversion - direct).max() < 1e-9 * scale
        ref = inverted_damped_values(dk, g, targets)
        lam, resid = measured_eigenvalue(ref, via_inversion)
        assert resid < 1e-8
        np.testing.assert_allclose(lam, eigenvalue(j, ell), atol=1e-8)


@pytest.mark.parametrize("setup", [
    z2_power(2, [Fraction(1, 2), Fraction(3, 2)]),    # Bessel route
    hyperoctahedral(2, 1, 2),                          # series route
])
def test_shared_kernel_tables_give_the_bits_of_a_fresh_memo(setup):
    """A table found in a shared memo is the array a rebuild would make, so
    a transform answers the same bits whichever memo it is handed."""
    dk = DunklContext(setup)
    rng = random.Random(29)
    targets = sample_points(rng, 4)
    f = eigenfunction(dk, 1, 1, harmonic_basis(dk, 1)[0])
    shared = KernelTables()
    transform_values(dk, f, targets, order=16, n_r=20, n_ang=24, tables=shared)
    built = shared.misses
    again = transform_values(dk, f, targets, order=16, n_r=20, n_ang=24, tables=shared)
    assert shared.misses == built and shared.hits >= 1
    fresh = transform_values(dk, f, targets, order=16, n_r=20, n_ang=24)
    assert np.array_equal(again, fresh)
    # the a = -2 routes share the tables of one memo, and stay bit for bit too
    g = eigenfunction(dk, 0, 1, harmonic_basis(dk, 1)[0])
    for route in (transform_inverted, transform_inverted_direct):
        got = route(dk, g, targets, 16, 20, 24, shared)
        assert np.array_equal(got, route(dk, g, targets, 16, 20, 24))


def test_deformed_transform_reduces_to_fourier_apply_at_zero_k():
    dk = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    ctx = DeformedContext(dk, DeformParams.commuting(4, Fraction(1, 2)))
    rng = random.Random(13)
    targets = sample_points(rng, 4, lo=0.5, hi=1.1)
    mg = monogenic_basis(dk, 1)[0]
    tower = LaguerreTower(ctx, 1, mg)
    psi = tower.psi(1)
    via_series = deformed_transform(ctx, psi, targets, order=28)
    via_kernel = fourier_apply(ctx, psi, targets)
    scale = np.abs(via_kernel).max()
    assert np.abs(via_series - via_kernel).max() < 1e-8 * scale


def test_deformed_transform_eigenfunctions_with_weight():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    ctx = DeformedContext(dk, DeformParams.commuting(2, Fraction(1, 2)))
    rng = random.Random(17)
    targets = sample_points(rng, 4, lo=0.5, hi=1.1)
    mg = monogenic_basis(dk, 1)[0]
    tower = LaguerreTower(ctx, 1, mg)
    from dunkldirac.fourier import spectral_eigenvalue
    for t in (0, 1):
        psi = tower.psi(t)
        got = deformed_transform(ctx, psi, targets, order=28)
        ref = damped_values(ctx, psi, targets)
        lam, resid = measured_eigenvalue(ref, got)
        assert resid < 1e-8
        np.testing.assert_allclose(
            lam, spectral_eigenvalue(ctx.par, 1, t), atol=1e-8)


def test_deformed_transform_gates_off_the_commuting_line():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1, 2)]))
    ctx = DeformedContext(dk, DeformParams(4, 0, 1))
    with pytest.raises(ValueError):
        deformed_transform(ctx, RadialExpr.monomial(2, (0, 0)), np.ones((1, 2)))
