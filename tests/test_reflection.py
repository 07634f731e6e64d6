"""Reflection groups: root data, invariance, weight functions."""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dunkldirac.reflection import (
    ReflectionSetup,
    dihedral,
    from_config,
    hyperoctahedral,
    reflect_monomial,
    symmetric,
    z2_power,
)


def all_setups():
    return [
        z2_power(1, [Fraction(1, 2)]),
        z2_power(2, [Fraction(1, 2), Fraction(3, 2)]),
        z2_power(3, [Fraction(1), Fraction(0), Fraction(2, 3)]),
        symmetric(3, Fraction(1, 2)),
        hyperoctahedral(2, Fraction(1, 3), Fraction(1)),
        dihedral(2, Fraction(1, 2), Fraction(3, 2)),
        dihedral(4, Fraction(1), Fraction(1, 2)),
    ]


def test_gamma_sums_multiplicities():
    s = z2_power(2, [Fraction(1, 2), Fraction(3, 2)])
    assert s.gamma == 2
    assert s.mu == 2 + 4
    a2 = symmetric(3, Fraction(1, 2))
    assert a2.gamma == Fraction(3, 2)  # three positive roots


def test_root_counts_per_family():
    assert len(z2_power(3, [1, 1, 1]).roots) == 3
    assert len(symmetric(4, 1).roots) == 6  # pairs i < j
    assert len(hyperoctahedral(3, 1, 1).roots) == 3 + 6
    assert len(dihedral(4, 1, 1).roots) == 4


def test_reflections_are_involutions():
    for s in all_setups():
        vec = tuple(Fraction(j + 1, 2) for j in range(s.m))
        for ridx in range(len(s.roots)):
            once = s.reflect_vector(ridx, vec)
            assert s.reflect_vector(ridx, once) == vec


def test_reflections_fix_the_orthogonal_complement():
    s = symmetric(3, 1)
    for ridx, root in enumerate(s.roots):
        # reflecting the root itself gives its negative
        assert s.reflect_vector(ridx, root) == tuple(-x for x in root)


def test_each_setup_is_invariant():
    """Construction checks that each reflection permutes the root lines with
    their multiplicities; every built-in family passes."""
    for s in all_setups():
        mult = dict(zip(s.roots, s.mults))
        for ridx in range(len(s.roots)):
            for v, k in mult.items():
                w = s.reflect_vector(ridx, v)
                assert mult.get(w, mult.get(tuple(-x for x in w))) == k


def test_root_lines_not_permuted_are_rejected():
    with pytest.raises(ValueError, match="does not permute the root lines"):
        ReflectionSetup("custom", 2, ((1, 0), (1, -1)), (1, 1))
    with pytest.raises(ValueError, match="does not permute the root lines"):
        ReflectionSetup("custom", 2, ((1, 0), (0, 1), (1, 1), (1, -1)),
                        (1, 1, 1, 2))


def test_rank_zero_is_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        z2_power(0, [])


def test_weight_numeric_homogeneity():
    """w(t x) = t^(2 gamma) w(x)."""
    rngpts = np.array([[0.3, 1.1], [-0.7, 0.2], [1.5, -1.5]])
    for s in [z2_power(2, [Fraction(1, 2), Fraction(3, 2)]),
              hyperoctahedral(2, Fraction(1, 3), Fraction(1)),
              dihedral(4, Fraction(1), Fraction(1, 2))]:
        w1 = s.weight_numeric(rngpts)
        w2 = s.weight_numeric(2.0 * rngpts)
        np.testing.assert_allclose(w2, 2.0 ** float(2 * s.gamma) * w1,
                                   rtol=1e-12)


def test_weight_numeric_z2_closed_form():
    # roots are normalized to <alpha, alpha> = 2, so each factor is
    # (2 x_i^2)^{k_i} = 2^{k_i} |x_i|^{2 k_i}
    s = z2_power(2, [Fraction(1, 2), Fraction(1)])
    pts = np.array([[0.5, -2.0]])
    expect = (2 * 0.5 ** 2) ** 0.5 * (2 * (-2.0) ** 2) ** 1.0
    np.testing.assert_allclose(s.weight_numeric(pts), [expect], rtol=1e-12)


def test_weight_is_reflection_invariant_numerically():
    s = symmetric(3, Fraction(1, 2))
    pts = np.array([[0.4, -1.2, 0.9]])
    w = s.weight_numeric(pts)
    for ridx in range(len(s.roots)):
        mat = np.array([[float(v) for v in row]
                        for row in s.reflection_matrix(ridx)])
        np.testing.assert_allclose(s.weight_numeric(pts @ mat.T), w, rtol=1e-12)


def test_signed_permutation_detection():
    z2 = z2_power(2, [1, 1])
    perm, signs = z2.signed_permutation(0)
    assert perm == (0, 1) and signs == (-1, 1)
    a2 = symmetric(3, 1)
    perm, signs = a2.signed_permutation(0)
    assert signs == (1, 1, 1) and perm != (0, 1, 2)
    # the 45-degree dihedral root is not a signed permutation in m = 2
    # until you include it; all I2(4) roots happen to be, so check a
    # genuinely rotated frame instead
    d4 = dihedral(4, 1, 1)
    assert all(d4.signed_permutation(r) is not None
               for r in range(len(d4.roots)))


def test_reflect_monomial_permutes_exponents():
    s = symmetric(2, 1)
    # s swaps x1, x2: x1^2 x2 goes to x2^2 x1
    assert reflect_monomial(s, 0, (2, 1)) == ((1, 2), 1)


SIGNED_SETUPS = [z2_power(3, 1), symmetric(3, 1), symmetric(4, 1),
                 hyperoctahedral(2, 1, 1), hyperoctahedral(3, 1, 1),
                 dihedral(4, 1)]


@st.composite
def reflected_monomials(draw):
    s = draw(st.sampled_from(SIGNED_SETUPS))
    ridx = draw(st.integers(0, len(s.roots) - 1))
    mono, left = [], 6
    for _ in range(s.m):
        e = draw(st.integers(0, left))
        mono.append(e)
        left -= e
    nonzero = st.fractions(-3, 3, max_denominator=7).filter(bool)
    x = tuple(draw(st.lists(nonzero, min_size=s.m, max_size=s.m)))
    return s, ridx, tuple(mono), x


@given(reflected_monomials())
def test_reflect_monomial_agrees_with_the_reflected_point(case):
    """x^mono at r(x), from the root itself, equals sign * x^mono2 at x."""
    s, ridx, mono, x = case
    mono2, sign = reflect_monomial(s, ridx, mono)
    rx = s.reflect_vector(ridx, x)
    assert sign in (1, -1) and sum(mono2) == sum(mono)
    assert prod(v ** e for v, e in zip(rx, mono)) == sign * prod(
        v ** e for v, e in zip(x, mono2))


def test_non_signed_permutation_root_is_rejected():
    with pytest.raises(ValueError, match="signed permutation"):
        ReflectionSetup("custom", 2, ((1, 2),), (1,))


def test_dihedral_odd_order_is_rejected():
    with pytest.raises(ValueError):
        dihedral(3, 1)
    with pytest.raises(ValueError):
        dihedral(6, 1, 1)


def test_dihedral_of_order_one_is_one_mirror():
    setup = dihedral(1, Fraction(1, 2))
    assert setup.roots == ((1, 0), (0, 1))
    assert setup.mults == (Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="one multiplicity"):
        dihedral(1, 1, 1)
    with pytest.raises(ValueError, match="n >= 1"):
        dihedral(0, 1)


def test_mult_count_mismatch_rejected():
    with pytest.raises(ValueError):
        z2_power(3, [1, 1])


def test_config_roundtrip_via_from_config():
    for cfg in [
        {"family": "z2^m", "m": 3, "k": ["1/2", "0", "2/3"]},
        {"family": "symmetric", "m": 3, "k": "1/2"},
        {"family": "hyperoctahedral", "m": 2, "k": ["1/3", "1"]},
        {"family": "dihedral", "m": 4, "k": ["1", "1/2"]},
    ]:
        s = from_config(cfg)
        assert from_config(s.to_config()) == s


def test_from_config_rejects_unknown_family():
    with pytest.raises(ValueError):
        from_config({"family": "exceptional", "m": 8, "k": "1"})
