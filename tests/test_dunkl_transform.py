"""Series transform with nontrivial reflection weight, and the a = -2 routes."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import hyp0f1

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
from dunkldirac.quadrature import KernelTables, tensor_points, tensor_rule
from dunkldirac.reflection import hyperoctahedral, symmetric, z2_power


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
    product they do take; rows include a point on an axis and a zero target.
    Summed degree by degree on tensor factors (r, dirs), as the transforms
    build it, it meets the product at the tensor points, r = 0 included."""
    m = len(ks)
    dk = DunklContext(z2_power(m, list(ks)))
    rng = np.random.default_rng(19)
    X = rng.uniform(-1, 1, size=(6, m)) / np.sqrt(m)
    Y = rng.uniform(-1, 1, size=(5, m)) / np.sqrt(m)
    X[0, 1:] = 0
    Y[0] = 0
    series = _series_kernel(dk, np.ones(1), X, Y, 20)
    np.testing.assert_allclose(series, kernel_matrix(dk, X, Y, 20), rtol=1e-12)
    r = np.array([0.0, 0.25, 0.6, 1.0])
    dirs = X / np.linalg.norm(X, axis=1)[:, None]
    np.testing.assert_allclose(_series_kernel(dk, r, dirs, Y, 24),
                               kernel_matrix(dk, tensor_points(r, dirs), Y, 24),
                               rtol=1e-13)


@pytest.mark.parametrize("setup, order, n_r, n_ang", [
    (hyperoctahedral(2, 1, 2), 28, 60, 64),
    (hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3)), 16, 20, 24),
    (symmetric(3, Fraction(1, 2)), 10, 8, 10),
], ids=["B2(1,2)", "B2(1/2,1/3)", "symmetric3"])
def test_tensor_series_route_matches_the_point_evaluator(setup, order, n_r, n_ang):
    """The transforms' tables, summed degree by degree on the rule's
    factors, against the point evaluator at the rule's nodes.  Both sum the
    same truncated series, whose terms reach (|x| |y|)^n / n! (Rösler's
    bound for k >= 0), so they are compared at 1e-13 of e^{|x| |y|}."""
    dk = DunklContext(setup)
    r, _W, dirs, _ws = tensor_rule(setup, 2, 1, 0, n_r, n_ang)
    rng = np.random.default_rng(37)
    Y = rng.uniform(-1.2, 1.2, size=(6, setup.m))
    X = tensor_points(r, dirs)
    scale = np.exp(np.outer(np.linalg.norm(X, axis=1), np.linalg.norm(Y, axis=1)))
    diff = _series_kernel(dk, r, dirs, Y, order) - kernel_matrix(dk, X, Y, order)
    assert np.abs(diff / scale).max() <= 1e-13


def test_series_transform_memory_follows_the_largest_degree_block():
    """With the series built, a symmetric(3) transform holds no table of
    nodes by monomials of every degree: 17,280 nodes times 455 monomials
    through order 12 would be 63 MB."""
    dk = DunklContext(symmetric(3, Fraction(1, 2)))
    dk.kernel_coefficients(12)
    f = RadialExpr.monomial(3, (1, 0, 0))
    rng = np.random.default_rng(41)
    targets = rng.uniform(-1.2, 1.2, size=(6, 3))
    tracemalloc.start()
    try:
        transform_values(dk, f, targets, order=12, n_r=30, n_ang=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def bessel_points(m):
    """Rows sharing |x_j| with opposite signs, repeated rows, axis points,
    the origin and -0.0 entries, plus random rows; and targets with a zero."""
    rng = np.random.default_rng(20)
    base = rng.uniform(-1, 1, size=(4, m))
    X = np.vstack([base, -base, base * [1, -1, 1][:m], base[:2], np.zeros((1, m)),
                   rng.uniform(-1, 1, size=(3, m))])
    X[-1, 1:] = 0
    X[-2, 0] = -0.0
    X[-3] = -0.0
    Y = rng.uniform(-2, 2, size=(5, m))
    Y[0] = 0
    return X, Y


bessel_setups = pytest.mark.parametrize("ks", [
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(2)),
], ids=["z2^2", "z2^3"])


@bessel_setups
def test_bessel_kernel_at_minus_x_is_the_conjugate(ks):
    """E(-x, -i y) = conj E(x, -i y) exactly: each factor's even part depends
    on (x_j y_j)^2 alone and its odd part changes sign with x_j."""
    dk = DunklContext(z2_power(len(ks), list(ks)))
    X, Y = bessel_points(len(ks))
    assert np.array_equal(kernel_matrix(dk, -X, Y, 28),
                          np.conj(kernel_matrix(dk, X, Y, 28)))


@bessel_setups
def test_bessel_kernel_is_bitwise_the_product_evaluated_at_every_row(ks):
    """Factors shared between rows of equal |x_j| give the bytes of the
    product evaluated at every row, signed zeros included."""
    dk = DunklContext(z2_power(len(ks), list(ks)))
    X, Y = bessel_points(len(ks))
    direct = np.ones((len(X), len(Y)), dtype=complex)
    for j, k in enumerate(map(float, ks)):
        z = np.multiply.outer(X[:, j], Y[:, j])
        w = -0.25 * z * z
        direct *= hyp0f1(k + 0.5, w) - 1j * z / (2 * k + 1) * hyp0f1(k + 1.5, w)
    assert kernel_matrix(dk, X, Y, 28).tobytes() == direct.tobytes()


@bessel_setups
def test_bessel_kernel_rows_alone_equal_the_batched_table(ks):
    """The factors are shared between rows of equal |x_j|; a row evaluated by
    itself gets the same bits."""
    dk = DunklContext(z2_power(len(ks), list(ks)))
    X, Y = bessel_points(len(ks))
    table = kernel_matrix(dk, X, Y, 28)
    for x, row in zip(X, table):
        assert np.array_equal(kernel_matrix(dk, x[None, :], Y, 28)[0], row)


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
