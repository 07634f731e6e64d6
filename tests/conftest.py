import random
from fractions import Fraction

import pytest

from dunkldirac.fischer import monomials
from dunkldirac.poly import RadialExpr


def rand_fraction(rng: random.Random, lo, hi, max_den: int = 6) -> Fraction:
    """Uniform-ish rational in [lo, hi] with a small denominator."""
    den = rng.randint(1, max_den)
    lo, hi = Fraction(lo), Fraction(hi)
    num_lo = -((-lo.numerator * den) // lo.denominator)
    num_hi = (hi.numerator * den) // hi.denominator
    return Fraction(rng.randint(num_lo, num_hi), den)


def monomial_inputs(m: int, degree: int, blades=None) -> list:
    """Every monomial times every blade up to the degree, the spanning set."""
    blades = range(1 << m) if blades is None else blades
    out = []
    for deg in range(degree + 1):
        for mono in monomials(m, deg):
            for blade in blades:
                out.append(RadialExpr.monomial(m, mono, blade=blade))
    return out


def random_expr(rng: random.Random, m: int, degree: int,
                terms: int = 4) -> RadialExpr:
    """Random polynomial-with-blades input; may include an r^2 shift."""
    out = RadialExpr(m)
    pool = [mono for d in range(degree + 1) for mono in monomials(m, d)]
    for _ in range(terms):
        mono = rng.choice(pool)
        coeff = rand_fraction(rng, -3, 3)
        if not coeff:
            coeff = Fraction(1)
        out = out + RadialExpr.monomial(
            m, mono, coeff, blade=rng.randrange(1 << m),
            r_exp=2 * rng.randint(0, 1))
    return out


@pytest.fixture
def rng():
    return random.Random(20260816)


def lattice_expr(rng: random.Random, m: int, den: int, terms: int = 5) -> RadialExpr:
    """Random polynomial-with-blades input whose radial exponents sit on the
    lattice 1/den (the first term at r^{1/den} makes den the lattice)."""
    pool = [mono for d in range(3) for mono in monomials(m, d)]
    out = RadialExpr(m)
    for i in range(terms):
        out = out + RadialExpr.monomial(
            m, rng.choice(pool), rand_fraction(rng, -3, 3) or Fraction(1),
            blade=rng.randrange(1 << m),
            r_exp=Fraction(1 if i == 0 else rng.randint(0, 2 * den), den))
    return out
