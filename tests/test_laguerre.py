"""Laguerre towers over null solutions and their ladder constants."""

import random
from fractions import Fraction

import pytest

from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.fischer import monogenic_basis
from dunkldirac.laguerre import LaguerreTower, laguerre_poly
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.reflection import z2_power

from conftest import rand_fraction


def laguerre_by_recurrence(n, alpha):
    """(n+1) L_{n+1} = (2n+1+alpha-z) L_n - (n+alpha) L_{n-1}, as coeff lists."""
    alpha = Fraction(alpha)
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [1 + alpha, Fraction(-1)]
    for k in range(1, n):
        shifted = [Fraction(0)] + cur
        nxt = [((2 * k + 1 + alpha) * c - s) for c, s in
               zip(cur + [Fraction(0)], shifted)]
        for i, p in enumerate(prev):
            nxt[i] -= (k + alpha) * p
        cur, prev = [c / (k + 1) for c in nxt], cur
    return cur


def test_laguerre_poly_matches_the_recurrence():
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)):
        for n in range(7):
            assert laguerre_poly(n, alpha) == laguerre_by_recurrence(n, alpha)


def test_laguerre_poly_low_orders():
    assert laguerre_poly(0, Fraction(1, 2)) == [Fraction(1)]
    assert laguerre_poly(1, 2) == [Fraction(3), Fraction(-1)]
    # L_2^0(z) = 1 - 2z + z^2/2
    assert laguerre_poly(2, 0) == [Fraction(1), Fraction(-2), Fraction(1, 2)]


def make_tower(a, b, c, ell=1, which=0):
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    ctx = DeformedContext(dk, DeformParams(a, b, c))
    mg = monogenic_basis(dk, ell)[which]
    return ctx, LaguerreTower(ctx, ell, mg)


def test_seed_validation():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    ctx = DeformedContext(dk, DeformParams(2, 0, 0))
    with pytest.raises(ValueError, match="not monogenic"):
        LaguerreTower(ctx, 1, RadialExpr.monomial(2, (1, 0)))
    good = monogenic_basis(dk, 2)[0]
    with pytest.raises(ValueError, match="not homogeneous"):
        LaguerreTower(ctx, 1, good)


def test_raising_recursion_equals_closed_form():
    rng = random.Random(20260816)
    for _ in range(4):
        a = rand_fraction(rng, Fraction(1, 4), 3)
        b = rand_fraction(rng, -1, 1)
        c = rand_fraction(rng, -2, 2)
        if a == 0 or c == -1:
            continue
        for ell in (0, 1):
            ctx, tower = make_tower(a, b, c, ell)
            for t in range(5):
                assert (tower.psi(t) - tower.psi_closed(t)).is_zero()


def test_step_constant_lowers_the_ladder():
    ctx, tower = make_tower(Fraction(3, 2), Fraction(1, 4), Fraction(1, 2))
    for t in range(1, 5):
        got = ctx.dirac(tower.psi(t))
        expect = tower.psi(t - 1).scale(tower.step_constant(t))
        assert (got - expect).is_zero()
    assert tower.step_constant(0) == 0


def test_base_of_the_tower_is_annihilated():
    ctx, tower = make_tower(4, Fraction(-1, 3), 1, ell=0)
    assert ctx.dirac(tower.psi(0)).is_zero()


def test_oscillator_constant():
    """(e^u D e^{-u})^2 - (1+c)^2 x_a^2 is scalar on each rung."""
    ctx, tower = make_tower(Fraction(2, 3), Fraction(1, 5), 2)
    one_c = 1 + ctx.par.c
    for t in range(4):
        psi = tower.psi(t)
        dd = ctx.dirac_on_damped(ctx.dirac_on_damped(psi))
        osc = dd - ctx.x_a(ctx.x_a(psi)).scale(one_c ** 2)
        assert (osc - psi.scale(tower.oscillator_constant(t))).is_zero()


def test_oscillator_spectrum_is_arithmetic_in_t():
    ctx, tower = make_tower(2, 0, 0)
    diffs = {tower.oscillator_constant(t + 1) - tower.oscillator_constant(t)
             for t in range(4)}
    assert diffs == {ctx.par.a * (1 + ctx.par.c) ** 2}


def test_even_rungs_are_radial_multiples_of_the_base():
    """psi_{2t} = (scalar radial polynomial) * r^beta M."""
    ctx, tower = make_tower(2, 0, 0, ell=1)
    psi2 = tower.psi(2)
    base_blades = {blade for _s, _mono, blade in tower.psi(0).terms}
    assert {blade for _s, _mono, blade in psi2.terms} <= base_blades
