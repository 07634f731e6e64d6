"""Exact weighted integrals: Gamma-function combinations and norm constants.

Integrals of the damped towers against h(r) w_k(x) dx always evaluate to
rational combinations of Gamma values at rational arguments times rational
powers of a/2 and 2.  :class:`GammaComb` represents such sums canonically:
every Gamma argument is reduced to (0, 1] through the functional equation,
so the identities this package cares about become decidable by dictionary
comparison.  Convergence gates stay explicit: radial integrals require a > 0
and a positive total exponent; the a = -2 family is reached through the
inversion in :mod:`dunkldirac.kelvin`, never by direct damped integration.
"""

from __future__ import annotations

from fractions import Fraction

from .deformed import DeformedContext
from .poly import RadialExpr
from .reflection import ReflectionSetup
from .scalars import ExactScalar

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def _two_exponent(fr: Fraction):
    """j with fr = 2^j, or None."""
    num, den = fr.numerator, fr.denominator
    if num > 0 and den == 1 and num & (num - 1) == 0:
        return num.bit_length() - 1
    if num == 1 and den & (den - 1) == 0:
        return -(den.bit_length() - 1)
    return None


def _reduce_gamma(z: Fraction, invert: bool):
    """(representative in (0,1], rational multiplier) with
    Gamma(z) = multiplier * Gamma(representative); invert for denominators.

    A pole (z a non-positive integer) raises in a numerator position and
    returns None in a denominator position, meaning the term vanishes.
    """
    if z.denominator == 1 and z <= 0:
        if invert:
            return None
        raise ValueError(f"Gamma pole at {z}")
    mult = Fraction(1)
    while z > 1:
        z -= 1
        mult = mult / z if invert else mult * z
    while z <= 0:
        mult = mult * z if invert else mult / z
        z += 1
    return z, mult


class GammaComb:
    """Sum of coeff * (a/2)^apow * 2^two_pow * prod Gamma(n_i) / prod Gamma(d_j)."""

    __slots__ = ("half_a", "terms")
    __hash__ = None

    def __init__(self, half_a=None, terms=None):
        self.half_a = None if half_a is None else Fraction(half_a)
        self.terms: dict = {}
        for (apow, two_pow, gnum, gden), coeff in (terms or {}).items():
            self._accumulate(apow, two_pow, gnum, gden, coeff)

    def _accumulate(self, apow, two_pow, gnum, gden, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return
        apow, two_pow = Fraction(apow), Fraction(two_pow)
        if apow:
            if self.half_a is None:
                raise ValueError("a-power used without a base")
            j = _two_exponent(self.half_a)
            if j is not None:
                two_pow += j * apow
                apow = _ZERO
        # integer parts of both exponents live in the rational coefficient;
        # only the fractional remainders in [0, 1) stay symbolic
        if apow:
            whole = apow.numerator // apow.denominator
            coeff *= self.half_a ** whole
            apow -= whole
        if two_pow:
            whole = two_pow.numerator // two_pow.denominator
            coeff *= Fraction(2) ** whole
            two_pow -= whole
        num: list = []
        den: list = []
        for z in gnum:
            red = _reduce_gamma(Fraction(z), invert=False)
            z, mult = red
            coeff *= mult
            if z != 1:
                num.append(z)
        for z in gden:
            red = _reduce_gamma(Fraction(z), invert=True)
            if red is None:
                return
            z, mult = red
            coeff *= mult
            if z != 1:
                den.append(z)
        for z in list(num):
            if z in den:
                num.remove(z)
                den.remove(z)
        key = (apow, two_pow, tuple(sorted(num)), tuple(sorted(den)))
        cur = self.terms.get(key)
        coeff = coeff if cur is None else cur + coeff
        if coeff:
            self.terms[key] = coeff
        elif cur is not None:
            del self.terms[key]

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, x, half_a=None) -> "GammaComb":
        out = cls(half_a)
        out._accumulate(0, 0, (), (), x)
        return out

    @classmethod
    def term(cls, coeff, apow=0, two_pow=0, gnum=(), gden=(), half_a=None) -> "GammaComb":
        out = cls(half_a)
        out._accumulate(apow, two_pow, gnum, gden, coeff)
        return out

    # -- ring structure ----------------------------------------------------

    def _merged_base(self, other):
        if self.half_a is None:
            return other.half_a
        if other.half_a is None or other.half_a == self.half_a:
            return self.half_a
        raise ValueError("mixed a-bases")

    def __add__(self, other):
        if isinstance(other, GammaComb):
            out = GammaComb(self._merged_base(other))
            out.terms = dict(self.terms)
            for key, c in other.terms.items():
                cur = out.terms.get(key)
                c = c if cur is None else cur + c
                if c:
                    out.terms[key] = c
                elif cur is not None:
                    del out.terms[key]
            return out
        return self + GammaComb.rational(other)

    def __neg__(self):
        out = GammaComb(self.half_a)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other if isinstance(other, GammaComb)
                       else GammaComb.rational(-Fraction(other)))

    def __mul__(self, other):
        if isinstance(other, GammaComb):
            out = GammaComb(self._merged_base(other))
            for (a1, t1, n1, d1), c1 in self.terms.items():
                for (a2, t2, n2, d2), c2 in other.terms.items():
                    out._accumulate(a1 + a2, t1 + t2, n1 + n2, d1 + d2, c1 * c2)
            return out
        out = GammaComb(self.half_a)
        other = Fraction(other)
        if other:
            out.terms = {k: c * other for k, c in self.terms.items()}
        return out

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, GammaComb):
            return (self - other).is_zero()
        return (self - GammaComb.rational(other)).is_zero()

    # -- evaluation ----------------------------------------------------------

    def numeric(self, dps: int = 40):
        import mpmath

        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            for (apow, two_pow, gnum, gden), coeff in self.terms.items():
                val = mpmath.mpf(coeff.numerator) / coeff.denominator
                if apow:
                    base = mpmath.mpf(self.half_a.numerator) / self.half_a.denominator
                    val *= mpmath.power(base, mpmath.mpf(apow.numerator) / apow.denominator)
                if two_pow:
                    val *= mpmath.power(2, mpmath.mpf(two_pow.numerator) / two_pow.denominator)
                for z in gnum:
                    val *= mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                for z in gden:
                    val /= mpmath.gamma(mpmath.mpf(z.numerator) / z.denominator)
                total += val
            return total

    def __float__(self):
        return float(self.numeric())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (apow, two_pow, gnum, gden), coeff in sorted(self.terms.items()):
            parts = [f"({coeff})"]
            if apow:
                parts.append(f"(a/2)^({apow})")
            if two_pow:
                parts.append(f"2^({two_pow})")
            parts.extend(f"G({z})" for z in gnum)
            parts.extend(f"/G({z})" for z in gden)
            bits.append("*".join(parts))
        return " + ".join(bits)


# -- the integrals -----------------------------------------------------------

def _check_convergent(a, Q):
    """Raise ValueError unless e^{-r^a/a} decays (a > 0) and r^{Q-1} is
    integrable at the origin (Q > 0)."""
    if a <= 0:
        raise ValueError("radial damping requires a > 0")
    if Q <= 0:
        raise ValueError(f"divergent radial integral: exponent {Q} <= 0")


def radial_integral(Q, a, lam=2) -> GammaComb:
    """int_0^inf r^{Q-1} e^{-lam r^a / a} dr = (1/a) (a/lam)^{Q/a} Gamma(Q/a).

    Needs a > 0 for decay and Q > 0 for integrability at the origin; lam must
    be a power of two times the reference damping so the result stays inside
    the (a/2, 2) exponent lattice.
    """
    a, Q = Fraction(a), Fraction(Q)
    _check_convergent(a, Q)
    j = _two_exponent(Fraction(2, 1) / Fraction(lam))
    if j is None:
        raise ValueError("lam must be a power of two")
    return GammaComb.term(Fraction(1) / a, apow=Q / a, two_pow=j * Q / a,
                          gnum=(Q / a,), half_a=a / 2)


def axis_multiplicities(setup: ReflectionSetup):
    """Per-axis multiplicities when every root is a coordinate vector, else None."""
    ks = [Fraction(0)] * setup.m
    for root, k in zip(setup.roots, setup.mults):
        live = [i for i, v in enumerate(root) if v]
        if len(live) != 1:
            return None
        ks[live[0]] += k
    return ks


def sphere_moment(m: int, mono: tuple, ks=None) -> GammaComb:
    """int_S xi^mono w_k(xi) dsigma for sign-flip weights w_k = prod (2 xi_i^2)^{k_i}.

    Zero for odd exponents; otherwise
    2^gamma * 2 * prod Gamma(p_i + k_i + 1/2) / Gamma(|p| + gamma + m/2)
    with p = mono / 2.
    """
    if ks is None:
        ks = [Fraction(0)] * m
    ks = [Fraction(k) for k in ks]
    if any(e % 2 for e in mono):
        return GammaComb()
    gamma = sum(ks, _ZERO)
    p = [e // 2 for e in mono]
    gnum = tuple(pi + ki + _HALF for pi, ki in zip(p, ks))
    gden = (sum(p) + gamma + Fraction(m, 2),)
    return GammaComb.term(2, two_pow=gamma, gnum=gnum, gden=gden)


def weight_exponent(dctx: DeformedContext) -> Fraction:
    """Exponent e_h of the radial density h(r) = r^{e_h} pairing the family.

    Satisfies e_h + 2 gamma + m = delta, the radial collapse that makes the
    one-dimensional picture match the full integral.
    """
    p = dctx.par
    return p.a / 2 + (2 * p.b - 1 - p.c * dctx.mu) / (1 + p.c)


def _rational_coeff(c):
    if isinstance(c, ExactScalar):
        if c.is_rational():
            return c.as_fraction()
        raise ValueError("exact integration needs rational coefficients")
    return Fraction(c)


def _blade_integrals(setup: ReflectionSetup, f: RadialExpr, g: RadialExpr,
                     what: str, dctx: DeformedContext = None, lam=2) -> dict:
    """Sum over the terms coeff r^s x^mono e_B of bar(f) g of coeff times the
    sphere moment of mono, times the radial integral of the term when dctx is
    given, collected by blade B.

    The radial convergence gate runs on every term, odd ones included, before
    odd monomials (whose sphere moments vanish) are skipped.
    """
    ks = axis_multiplicities(setup)
    if ks is None:
        raise ValueError(f"exact {what} need axis-aligned roots")
    if dctx is not None:
        a, q0 = dctx.par.a, 2 * setup.gamma + weight_exponent(dctx) + setup.m
    out: dict = {}
    for (s, mono, blade), coeff in f.bar().mul_expr(g).rational_terms():
        if dctx is not None:
            q_total = q0 + s + sum(mono)
            _check_convergent(a, q_total)
        if any(e % 2 for e in mono):
            continue
        term = sphere_moment(setup.m, mono, ks)
        if dctx is not None:
            term = radial_integral(q_total, a, lam) * term
        term = term * _rational_coeff(coeff)
        out[blade] = out[blade] + term if blade in out else term
    return {blade: comb for blade, comb in out.items() if not comb.is_zero()}


def inner_product_exact(dctx: DeformedContext, f: RadialExpr, g: RadialExpr,
                        lam=2) -> dict:
    """<f, g> = int bar(f) g r^{e_h} w_k e^{-lam r^a/a} dx, blade by blade.

    f and g are the polynomial parts; the damping e^{-(lam/2) r^a/a} carried
    by each factor is supplied through lam.  Exact only for sign-flip groups
    (axis-aligned roots), where every sphere moment is a Gamma quotient.
    Raises ValueError when a <= 0 or some term, odd ones included, diverges
    at the origin.
    """
    return _blade_integrals(dctx.dk.setup, f, g, "inner products", dctx, lam)


def sphere_inner_exact(setup: ReflectionSetup, f: RadialExpr, g: RadialExpr) -> dict:
    """int_S bar(f) g w_k dsigma blade by blade (r = 1 on the sphere)."""
    return _blade_integrals(setup, f, g, "sphere integrals")


def norm_constant(dctx: DeformedContext, ell: int, t: int) -> GammaComb:
    """<psi_t e^{-r^a/a}, psi_t e^{-r^a/a}> = norm_constant * int_S bar(M) M w_k.

    c(2t)   = (1/2) (2a)^{2t}   (1+c)^{4t}   t! Gamma(g/a + t)   (a/2)^{g/a - 1}
    c(2t+1) = (1/2) (2a)^{2t+1} (1+c)^{4t+2} t! Gamma(g/a + t+1) (a/2)^{g/a - 1}

    with g = gamma_ell.  The lowest radial exponent of |psi_t|^2 is
    g + a (t mod 2), so the integral diverges, and this raises ValueError,
    unless a > 0 and that exponent is positive.
    """
    p = dctx.par
    g = dctx.gamma_ell(ell)
    _check_convergent(p.a, g + t % 2 * p.a)
    g_over_a = g / p.a
    half = t // 2
    fact = Fraction(1)
    for j in range(2, half + 1):
        fact *= j
    if t % 2 == 0:
        coeff = _HALF * (2 * p.a) ** (2 * half) * (1 + p.c) ** (4 * half) * fact
        arg = g_over_a + half
    else:
        coeff = _HALF * (2 * p.a) ** (2 * half + 1) * (1 + p.c) ** (4 * half + 2) * fact
        arg = g_over_a + half + 1
    return GammaComb.term(coeff, apow=g_over_a - 1, gnum=(arg,), half_a=p.a / 2)


def mehta_constant(setup: ReflectionSetup) -> GammaComb:
    """int e^{-|x|^2/2} w_k(x) dx = 2^{mu/2 + gamma} prod Gamma(k_i + 1/2)
    for sign-flip groups: the radial integral at a = 2 times the sphere mass."""
    ks = axis_multiplicities(setup)
    if ks is None:
        raise ValueError("closed Macdonald-Mehta value implemented for sign-flip groups")
    return radial_integral(setup.mu, 2, 1) * sphere_moment(setup.m, (0,) * setup.m, ks)
