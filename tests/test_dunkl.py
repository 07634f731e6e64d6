"""Dunkl operators: derivations, commutativity, Laplacian, kernel series."""

import math
import random
from fractions import Fraction
from operator import add

import pytest

from dunkldirac.dunkl import DunklContext
from dunkldirac.linalg import InconsistentSystem, SingularSystem
from dunkldirac.poly import RadialExpr, x_vector
from dunkldirac.reflection import hyperoctahedral, reflect_monomial, symmetric, z2_power

from conftest import monomial_inputs, random_expr


def contexts():
    return [
        DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)])),
        DunklContext(symmetric(3, Fraction(1, 2))),
        DunklContext(hyperoctahedral(2, Fraction(1, 3), Fraction(1))),
    ]


def test_zero_multiplicity_reduces_to_partial_derivative():
    dk = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    f = random_expr(random.Random(1), 2, 3)
    for i in (1, 2):
        assert dk.dunkl(i, f) == f.deriv(i)


def test_rank_one_closed_form():
    # T(x^n) = n x^{n-1} + k (1 - (-1)^n) x^{n-1}
    k = Fraction(3, 4)
    dk = DunklContext(z2_power(1, [k]))
    for n in range(1, 6):
        f = RadialExpr.monomial(1, (n,))
        bonus = 2 * k if n % 2 else Fraction(0)
        expect = RadialExpr.monomial(1, (n - 1,), Fraction(n) + bonus)
        assert dk.dunkl(1, f) == expect


def test_dunkl_operators_commute():
    for dk in contexts():
        m = dk.setup.m
        f = random_expr(random.Random(42 + m), m, 3)
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                assert dk.dunkl(i, dk.dunkl(j, f)) == dk.dunkl(j, dk.dunkl(i, f))


def test_basic_props_hold_on_monomials():
    for dk in contexts():
        m = dk.setup.m
        for f in monomial_inputs(m, 2):
            assert all(d.is_zero() for d in dk.basic_props_report(f).values())


def test_basic_props_report_names_every_relation():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(1)]))
    f = RadialExpr.monomial(2, (1, 1))
    report = dk.basic_props_report(f)
    assert any("2 E + mu" in name for name in report)
    assert any("[T_1, T_2]" in name for name in report)
    assert all(defect.is_zero() for defect in report.values())


def test_laplacian_is_sum_of_squares():
    for dk in contexts():
        m = dk.setup.m
        f = random_expr(random.Random(7 * m), m, 2)
        total = RadialExpr(m)
        for i in range(1, m + 1):
            total = total + dk.dunkl(i, dk.dunkl(i, f))
        assert dk.laplacian(f) == total


def test_laplacian_matches_explicit_form():
    """Composition of first-order operators vs the radial+difference formula."""
    for dk in contexts():
        m = dk.setup.m
        rng = random.Random(m)
        for _ in range(3):
            f = random_expr(rng, m, 3)
            # explicit form needs polynomial input: strip radial shifts
            f = RadialExpr(m, {(Fraction(0), mono, b): c
                               for (s, mono, b), c in f.terms.items()})
            assert dk.laplacian_explicit(f) == dk.laplacian(f)


def test_laplacian_of_r_squared_is_twice_mu():
    for dk in contexts():
        m = dk.setup.m
        r2 = RadialExpr.monomial(m, (0,) * m, r_exp=2)
        assert dk.laplacian(r2) == RadialExpr.scalar(m, 2 * dk.setup.mu)


def test_dirac_squares_to_minus_laplacian():
    for dk in contexts():
        m = dk.setup.m
        f = random_expr(random.Random(13 * m), m, 2)
        assert dk.dirac(dk.dirac(f)) == -dk.laplacian(f)


def test_dirac_anticommutes_with_x():
    """{x, D} = -(2 E + mu) on any input."""
    for dk in contexts():
        m = dk.setup.m
        mu = dk.setup.mu
        f = random_expr(random.Random(17 * m), m, 2)
        lhs = dk.dirac(f.vector_mul_left()) + dk.dirac(f).vector_mul_left()
        assert lhs == -(f.euler().scale(2) + f.scale(mu))


def test_reflect_is_algebra_map():
    """(x^p x^q) o r = (x^p o r)(x^q o r) for each reflection's signed monomials."""
    setup = hyperoctahedral(3, Fraction(1, 3), Fraction(1))
    rng = random.Random(23)
    for _ in range(20):
        p = tuple(rng.randint(0, 3) for _ in range(3))
        q = tuple(rng.randint(0, 3) for _ in range(3))
        for ridx in range(len(setup.roots)):
            mp, sp = reflect_monomial(setup, ridx, p)
            mq, sq = reflect_monomial(setup, ridx, q)
            pq = tuple(map(add, p, q))
            assert reflect_monomial(setup, ridx, pq) == (tuple(map(add, mp, mq)), sp * sq)


# -- kernel series --------------------------------------------------------

@pytest.mark.parametrize("dk", contexts(),
                         ids=lambda dk: f"{dk.setup.name}-{dk.setup.m}")
def test_kernel_series_passes_its_own_verifier(dk):
    series = dk.kernel_series(6)
    assert dk.verify_kernel_series(series)


@pytest.mark.parametrize("setup, order", [
    (hyperoctahedral(2, Fraction(1, 2), Fraction(1, 3)), 12),
    (hyperoctahedral(3, Fraction(1), Fraction(1, 3)), 6),
], ids=["B2", "hyperoctahedral3"])
def test_kernel_series_passes_its_verifier_off_the_axes(setup, order):
    """Orbits of several sizes and levels whose denominators grow and shrink."""
    dk = DunklContext(setup)
    assert dk.verify_kernel_series(dk.kernel_series(order))


@pytest.mark.parametrize("setup, error, message", [
    (symmetric(2, Fraction(-1, 2)), InconsistentSystem,
     "kernel series: no solution at order 1 with multiplicities -1/2"),
    (symmetric(3, Fraction(-1, 2)), InconsistentSystem,
     "kernel series: no solution at order 3 with multiplicities -1/2"),
    (hyperoctahedral(2, Fraction(-3, 2), Fraction(1, 2)), SingularSystem,
     "kernel series: solution not unique at order 4 with multiplicities -3/2, 1/2"),
], ids=["symmetric2", "symmetric3", "B2"])
def test_kernel_series_names_a_singular_multiplicity(setup, error, message):
    with pytest.raises(error) as exc:
        DunklContext(setup).kernel_series(8)
    assert type(exc.value) is error and str(exc.value) == message


def test_kernel_series_at_zero_multiplicity_is_exp_taylor():
    """With k = 0 the kernel is exp<x, y>: order n term is <x,y>^n / n!."""
    dk = DunklContext(z2_power(2, [Fraction(0), Fraction(0)]))
    series = dk.kernel_series(5)
    for n, level in enumerate(series):
        expect = {}
        for a in range(n + 1):
            b = n - a
            c = Fraction(math.comb(n, a), math.factorial(n))
            expect[((a, b), (a, b))] = c
        assert level == expect


def test_kernel_series_is_symmetric_in_x_and_y():
    dk = DunklContext(z2_power(2, [Fraction(1, 2), Fraction(3, 2)]))
    for level in dk.kernel_series(4):
        for (xm, ym), c in level.items():
            assert level.get((ym, xm)) == c


def test_kernel_series_degree_zero_is_one():
    for dk in contexts():
        m = dk.setup.m
        zero = (0,) * m
        assert dk.kernel_series(0)[0] == {(zero, zero): Fraction(1)}
