"""Harmonic and monogenic bases, towers of null solutions, decompositions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.fischer import (
    fischer_constant,
    fischer_tower,
    harmonic_basis,
    harmonic_dimension,
    monogenic_basis,
    monogenic_dimension,
    monomials,
    null_solution,
    singular_degree,
    tower_decompose,
)
from dunkldirac.linalg import _reduced_echelon
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.reflection import hyperoctahedral, symmetric, z2_power


def test_monomials_enumeration():
    assert monomials(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(monomials(3, 4)) == 15
    assert monomials(1, 3) == [(3,)]


def test_harmonic_dimensions_match_classical_values():
    # m = 2: dim 1, 2, 2, 2, ...; m = 3: dim 1, 3, 5, 7, ...
    assert [harmonic_dimension(2, ell) for ell in range(4)] == [1, 2, 2, 2]
    assert [harmonic_dimension(3, ell) for ell in range(4)] == [1, 3, 5, 7]


def test_monogenic_dimensions():
    # dim of degree-ell spherical monogenics with full algebra values
    for m in (2, 3):
        for ell in range(3):
            from math import comb
            scalar_dim = comb(ell + m - 1, m - 1) - (
                comb(ell + m - 2, m - 1) if ell >= 1 else 0)
            assert monogenic_dimension(m, ell) == scalar_dim * (1 << m)


def coefficient_rank(basis) -> int:
    """Rank of the basis elements' coefficient rows over their term keys."""
    keys = sorted({key for f in basis for key in f.terms})
    rows = [[int(f.terms.get(key, 0)) for key in keys] for f in basis]
    return len(_reduced_echelon(rows)[0]) if rows else 0


def is_primitive(f) -> bool:
    cs = list(f.terms.values())
    return all(c.denominator == 1 for c in cs) and gcd(*(int(c) for c in cs)) == 1


# beyond m = 2: off-axis roots, two root orbits, and rank 4
WIDER_SETUPS = [z2_power(3, [Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)]),
                hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3)),
                hyperoctahedral(3, Fraction(1, 2), Fraction(1, 3)),
                symmetric(4, Fraction(1, 2))]


def test_harmonic_basis_is_annihilated_and_counted():
    """Each basis element is harmonic and primitive, and the elements are as
    many as the dimension of the space and independent (coefficient rank)."""
    for setup in [z2_power(2, [Fraction(1, 2), Fraction(3, 2)]),
                  symmetric(3, Fraction(1, 2)), *WIDER_SETUPS]:
        dk = DunklContext(setup)
        for ell in range(4):
            basis = harmonic_basis(dk, ell)
            dim = harmonic_dimension(setup.m, ell)
            assert len(basis) == coefficient_rank(basis) == dim
            for h in basis:
                assert is_primitive(h)
                assert dk.laplacian(h).is_zero()


def test_monogenic_basis_is_annihilated_and_counted():
    """The basis elements are as many as the dimension and independent
    (coefficient rank); each is monogenic, and the primitive form of the
    slot-0 part of its seed x^beta e_B in the Fischer decomposition at
    (a, b, c) = (2, 0, 0)."""
    for setup in [z2_power(2, [Fraction(1, 2), Fraction(3, 2)]), *WIDER_SETUPS]:
        dk = DunklContext(setup)
        dctx = DeformedContext(dk, DeformParams(2, 0, 0))
        for ell in range(3 if setup.m == 4 else 4):
            basis = monogenic_basis(dk, ell)
            dim = monogenic_dimension(setup.m, ell)
            assert len(basis) == coefficient_rank(basis) == dim
            seeds = [(mo, blade) for mo in monomials(setup.m, ell) if mo[-1] == 0
                     for blade in range(1 << setup.m)]
            assert len(seeds) == len(basis)
            for mg, (mo, blade) in zip(basis, seeds):
                assert dk.dirac(mg).is_zero()
                assert is_primitive(mg)
                seed = RadialExpr.monomial(setup.m, mo, blade=blade)
                slot0 = tower_decompose(dctx, seed)[0]
                key = next(iter(mg.terms))
                ratio = slot0.terms[key] / mg.terms[key]
                assert ratio > 0 and slot0 == mg.scale(ratio)


def test_bases_raise_only_at_a_pole_of_the_projection():
    """On z2^2 at k = -1/2, gamma + m/2 = 0: the degree-1 monogenic step and
    the j = 1 harmonic factor at degree 2 divide by zero; the degree-3
    harmonics, whose one factor is (2 - 0 - 3)_1, still build."""
    dk = DunklContext(z2_power(2, [Fraction(-1, 2)] * 2))
    with pytest.raises(ValueError, match="divides by zero"):
        monogenic_basis(dk, 1)
    with pytest.raises(ValueError, match="divides by zero"):
        harmonic_basis(dk, 2)
    assert [singular_degree(dk.setup, kind, 3) for kind in ("monogenic", "harmonic")] == [1, 2]
    basis = harmonic_basis(dk, 3)
    assert len(basis) == 2 and all(dk.laplacian(h).is_zero() for h in basis)


def make_ctx(a, b, c):
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    return DeformedContext(dk, DeformParams(a, b, c))


def test_null_solution_is_annihilated():
    ctx = make_ctx(Fraction(2, 3), Fraction(1, 4), Fraction(1, 2))
    for ell in range(3):
        for mg in monogenic_basis(ctx.dk, ell):
            assert ctx.dirac(null_solution(ctx, mg, ell)).is_zero()


def test_fischer_constant_lowers_the_tower():
    ctx = make_ctx(Fraction(3, 2), Fraction(-1, 3), Fraction(1, 5))
    ell = 1
    mg = monogenic_basis(ctx.dk, ell)[0]
    tower = fischer_tower(ctx, mg, ell, 4)
    for s in range(1, 5):
        expect = tower[s - 1].scale(fischer_constant(ctx, ell, s))
        assert ctx.dirac(tower[s]) == expect


def test_fischer_constant_base_case_is_zero():
    ctx = make_ctx(2, 0, 0)
    assert fischer_constant(ctx, 1, 0) == 0


def test_tower_decompose_roundtrip():
    rng = random.Random(31)
    ctx = make_ctx(2, Fraction(1, 3), Fraction(1, 2))
    ell = 1
    basis = monogenic_basis(ctx.dk, ell)
    # build a homogeneous combination across slots 0..2 over degree-ell monogenics
    f = RadialExpr(2)
    by_slot = {}
    for s in range(3):
        u = null_solution(ctx, basis[rng.randrange(len(basis))], ell)
        # all slots must share one homogeneity degree: x_a^s raises by s*a/2,
        # so the slot-s monogenic must sit ell - s*a/2*(stuff) lower; easiest
        # consistent choice is a fixed ell with varying slot only when a = 2
        piece = u
        for _ in range(s):
            piece = ctx.x_a(piece)
        piece = piece.mul_radial(2 - s)  # no-op for homogeneity bookkeeping
        by_slot[s] = u
    # keep it simple: decompose a single known tower element per slot
    for s in range(3):
        piece = by_slot[s]
        for _ in range(s):
            piece = ctx.x_a(piece)
        got = tower_decompose(ctx, piece)
        assert set(got) == {s}
        assert (got[s] - by_slot[s]).is_zero()


def test_tower_decompose_two_slot_mixture():
    """Slots of equal homogeneity: x_a^2 over degree ell and x_a^0 over ell + a."""
    ctx = make_ctx(2, 0, 0)  # a = 2: x_a^2 raises degree by 2, parity matches
    ell = 0
    u0 = null_solution(ctx, monogenic_basis(ctx.dk, ell)[0], ell)
    u2_target = null_solution(ctx, monogenic_basis(ctx.dk, ell + 2)[0], ell + 2)
    f = ctx.x_a(ctx.x_a(u0)) + u2_target
    got = tower_decompose(ctx, f)
    assert set(got) == {0, 2}
    assert (got[2] - u0).is_zero()
    assert (got[0] - u2_target).is_zero()


def test_tower_decompose_rejects_nonhomogeneous_input():
    ctx = make_ctx(2, 0, 0)
    f = RadialExpr.monomial(2, (1, 0)) + RadialExpr.monomial(2, (0, 0))
    with pytest.raises(ValueError):
        tower_decompose(ctx, f)


def test_tower_decompose_detects_the_singular_locus():
    # gamma_ell = a/2 + (mu-1+2 ell)/(1+c); with mu = 6, a = 2, c = -6 the
    # value at ell = 0 is 1 + 5/(-5) = 0, so the first odd step constant
    # vanishes and the slot-1 tower cannot be peeled
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))  # mu = 6
    par = DeformParams(2, 0, -6)
    ctx = DeformedContext(dk, par)
    assert ctx.gamma_ell(0) == 0
    assert ctx.is_singular(0)
    assert fischer_constant(ctx, 0, 1) == 0
    # D annihilates x_a u outright on this locus, so the decomposer sees a
    # phantom slot-0 element whose degree bookkeeping cannot close
    u = null_solution(ctx, monogenic_basis(dk, 0)[0], 0)
    with pytest.raises(ValueError):
        tower_decompose(ctx, ctx.x_a(u))


def test_tower_decompose_rejects_non_tower_input():
    ctx = make_ctx(2, 0, 0)
    f = RadialExpr.monomial(2, (1, 0), r_exp=Fraction(1, 3))
    with pytest.raises(ValueError):
        tower_decompose(ctx, f, max_steps=12)


def test_classical_degree_one_split():
    """At (2, 0, 0) a coordinate times a blade splits into monogenic + x_a part."""
    ctx = make_ctx(2, 0, 0)
    f = RadialExpr.monomial(2, (1, 0), blade=0)  # x1 * 1, homogeneous degree 1
    got = tower_decompose(ctx, f)
    rebuilt = RadialExpr(2)
    for s, u in got.items():
        assert ctx.dirac(u).is_zero()
        piece = u
        for _ in range(s):
            piece = ctx.x_a(piece)
        rebuilt = rebuilt + piece
    assert (rebuilt - f).is_zero()


def test_tower_decompose_rejects_a_slotless_homogeneity_before_applying_d():
    """No slot admits a monogenic degree at homogeneity 4/3, so the input is
    rejected before the D chain is built."""
    ctx = make_ctx(2, 0, 0)

    def no_dirac(_f):
        raise AssertionError("D applied to an input no slot admits")
    ctx.dirac = no_dirac
    f = RadialExpr.monomial(2, (1, 0), r_exp=Fraction(1, 3))
    with pytest.raises(ValueError, match="admits no monogenic degree"):
        tower_decompose(ctx, f)
