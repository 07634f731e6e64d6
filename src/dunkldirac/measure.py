"""Exact weighted integrals: radial integrals, sphere moments, norm and
Macdonald-Mehta constants.

Integrals of the damped towers against h(r) w_k(x) dx always evaluate to
rational combinations of Gamma values at rational arguments times rational
powers of a/2 and 2, which is what an :class:`~dunkldirac.scalars.ExactScalar`
holds canonically; so the identities this package cares about become
decidable by dictionary comparison.  Sphere moments are closed for sign-flip
groups only; the Gaussian mass is closed for every family the package
builds.  Convergence gates stay explicit: radial integrals require a > 0
and a positive total exponent, a Gaussian mass every Gamma argument of its
product positive; the a = -2 family is reached through the inversion in
:mod:`dunkldirac.kelvin`, never by direct damped integration.

The exact integrals take the product bar(f) g.  Each unit integral (radial
integral times sphere moment) is built once per process, in a memo keyed by
(m, axis multiplicities, a, total exponent, monomial) and counted by
:func:`unit_cache_info`; its entries are shared and must not be mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .deformed import DeformedContext
from .poly import RadialExpr
from .reflection import ReflectionSetup
from .scalars import ExactScalar, two_exponent

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


# -- the integrals -----------------------------------------------------------

def _check_convergent(a, Q):
    """Raise ValueError unless e^{-r^a/a} decays (a > 0) and r^{Q-1} is
    integrable at the origin (Q > 0)."""
    if a <= 0:
        raise ValueError("radial damping requires a > 0")
    if Q <= 0:
        raise ValueError(f"divergent radial integral: exponent {Q} <= 0")


def radial_integral(Q, a, lam=2) -> ExactScalar:
    """int_0^inf r^{Q-1} e^{-lam r^a / a} dr = (1/a) (a/lam)^{Q/a} Gamma(Q/a).

    Needs a > 0 for decay and Q > 0 for integrability at the origin; lam must
    be a power of two times the reference damping so the result stays inside
    the (a/2, 2) exponent lattice.
    """
    a, Q = Fraction(a), Fraction(Q)
    _check_convergent(a, Q)
    j = two_exponent(Fraction(2, 1) / Fraction(lam))
    if j is None:
        raise ValueError("lam must be a power of two")
    return ExactScalar.term(Fraction(1) / a, apow=Q / a, two_pow=j * Q / a,
                            gnum=(Q / a,), base=a / 2)


def axis_multiplicities(setup: ReflectionSetup):
    """Per-axis multiplicities when every root is a coordinate vector, else None."""
    ks = [Fraction(0)] * setup.m
    for root, k in zip(setup.roots, setup.mults):
        live = [i for i, v in enumerate(root) if v]
        if len(live) != 1:
            return None
        ks[live[0]] += k
    return ks


def sphere_moment(m: int, mono: tuple, ks=None) -> ExactScalar:
    """int_S xi^mono w_k(xi) dsigma for sign-flip weights w_k = prod (2 xi_i^2)^{k_i}.

    Zero for odd exponents; otherwise
    2^gamma * 2 * prod Gamma(p_i + k_i + 1/2) / Gamma(|p| + gamma + m/2)
    with p = mono / 2.
    """
    if ks is None:
        ks = [Fraction(0)] * m
    ks = [Fraction(k) for k in ks]
    if any(e % 2 for e in mono):
        return ExactScalar()
    gamma = sum(ks, _ZERO)
    p = [e // 2 for e in mono]
    gnum = tuple(pi + ki + _HALF for pi, ki in zip(p, ks))
    gden = (sum(p) + gamma + Fraction(m, 2),)
    return ExactScalar.term(2, two_pow=gamma, gnum=gnum, gden=gden)


def weight_exponent(dctx: DeformedContext) -> Fraction:
    """Exponent e_h of the radial density h(r) = r^{e_h} pairing the family.

    Satisfies e_h + 2 gamma + m = delta, the radial collapse that makes the
    one-dimensional picture match the full integral.
    """
    p = dctx.par
    return p.a / 2 + (2 * p.b - 1 - p.c * dctx.mu) / (1 + p.c)


_UNITS: dict = {}      # (m, ks, a) -> {(q num, q den, mono) or mono: unit integral}
_UNIT_COUNTS = [0, 0]  # misses, hits


def unit_cache_info() -> dict:
    """Hits and misses of the unit-integral memo behind the exact integrals."""
    return {"hits": _UNIT_COUNTS[1], "misses": _UNIT_COUNTS[0]}


def _blade_integrals(setup: ReflectionSetup, prod: RadialExpr, what: str,
                     dctx: DeformedContext = None) -> dict:
    """Sum over the terms coeff r^s x^mono e_B of prod of coeff times the
    memo's unit integral (the sphere moment of mono, times the radial integral
    of the term when dctx is given), by blade B: rational coefficients on the
    unit's term keys, ExactScalar ones by the generic product.

    The radial convergence gate runs on every term, odd ones included, before
    odd monomials (whose sphere moments vanish) are skipped.
    """
    ks = axis_multiplicities(setup)
    if ks is None:
        raise ValueError(f"exact {what} need axis-aligned roots")
    a = base = None
    if dctx is not None:
        a, q0 = dctx.par.a, 2 * setup.gamma + weight_exponent(dctx) + setup.m
        base, top, bot, den = a / 2, q0.numerator, q0.denominator, prod.den
    units = _UNITS.setdefault((setup.m, tuple(ks), a), {})
    sums, mixed = {}, {}  # blade -> {scalar term key: rational}, ExactScalar
    for (n, mono, blade), coeff in prod.terms.items():
        key = mono
        if dctx is not None:  # the total exponent q0 + n / den + |mono| as qn / qd
            qn, qd = top * den + bot * (n + den * sum(mono)), bot * den
            if a <= 0 or qn <= 0:
                _check_convergent(a, Fraction(qn, qd))
            key = (qn // (g := gcd(qn, qd)), qd // g, mono)
        if any(e % 2 for e in mono):
            continue
        unit = units.get(key)
        _UNIT_COUNTS[unit is not None] += 1
        if unit is None:
            unit = sphere_moment(setup.m, mono, ks)
            if a is not None:
                unit = radial_integral(Fraction(qn, qd), a) * unit
            units[key] = unit
        acc = sums.setdefault(blade, {})
        if isinstance(coeff, ExactScalar):
            mixed[blade] = unit * coeff + mixed.get(blade, 0)
            continue
        for tk, c in unit.terms.items():
            acc[tk] = acc.get(tk, _ZERO) + c * coeff
    combs = {blade: ExactScalar._canonical(base, {k: c for k, c in acc.items() if c})
             + mixed.get(blade, 0) for blade, acc in sums.items()}
    return {blade: comb for blade, comb in combs.items() if comb}


def inner_product_exact(dctx: DeformedContext, prod: RadialExpr) -> dict:
    """<f, g> = int prod r^{e_h} w_k e^{-2 r^a/a} dx, blade by blade, with prod =
    bar(f) g of the polynomial parts f and g, each carrying e^{-r^a/a}.

    Exact only for sign-flip groups (axis-aligned roots), where every sphere
    moment is a Gamma quotient.  Raises ValueError when a <= 0 or some term,
    odd ones included, diverges at the origin.
    """
    return _blade_integrals(dctx.dk.setup, prod, "inner products", dctx)


def sphere_inner_exact(setup: ReflectionSetup, prod: RadialExpr) -> dict:
    """int_S prod w_k dsigma, prod = bar(f) g, blade by blade (r = 1 on the sphere)."""
    return _blade_integrals(setup, prod, "sphere integrals")


def norm_constant(dctx: DeformedContext, ell: int, t: int) -> ExactScalar:
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
    half, odd = divmod(t, 2)
    coeff = _HALF * (2 * p.a) ** t * (1 + p.c) ** (2 * t) * factorial(half)
    return ExactScalar.term(coeff, apow=g_over_a - 1, gnum=(g_over_a + half + odd,),
                            base=p.a / 2)


def mehta_constant(setup: ReflectionSetup) -> ExactScalar:
    """c_k = int e^{-|x|^2/2} w_k dx, w_k = prod (2 <alpha, x>^2 / |alpha|^2)^{k_alpha},
    in the closed Macdonald-Mehta form (Dunkl, Canad. J. Math. 1991; Rosler,
    LNM 1817), with (2 pi)^{m/2} = 2^{m/2} Gamma(1/2)^m:

    * sign-flip: 2^{2 gamma + m/2} prod_i Gamma(k_i + 1/2);
    * A_{m-1}: (2 pi)^{m/2} prod_{j=1..m} Gamma(1 + j k) / Gamma(1 + k);
    * B_m: 2^{2 m k_s + m(m-1) k_l + m/2}
      prod_{j<m} Gamma(1 + (j+1) k_l) Gamma(k_s + j k_l + 1/2) / Gamma(1 + k_l).

    The integral converges exactly when every Gamma argument above is
    positive; otherwise this raises ValueError.
    """
    m = setup.m
    ks = axis_multiplicities(setup)
    if ks is not None:
        two = 2 * sum(ks, _ZERO) + Fraction(m, 2)
        gnum, gden = [k + _HALF for k in ks], []
    elif setup.name == "symmetric":
        k = setup.mults[0]
        two = Fraction(m, 2)
        gnum = [_HALF] * m + [1 + j * k for j in range(1, m + 1)]
        gden = [1 + k] * m
    elif setup.name == "hyperoctahedral":
        k_s, k_l = setup.mults[0], setup.mults[-1]
        two = 2 * m * k_s + m * (m - 1) * k_l + Fraction(m, 2)
        gnum = ([1 + (j + 1) * k_l for j in range(m)]
                + [k_s + j * k_l + _HALF for j in range(m)])
        gden = [1 + k_l] * m
    else:
        raise ValueError(f"no closed Macdonald-Mehta constant for {setup.name}")
    if min(gnum) <= 0:
        raise ValueError(f"divergent Gaussian integral: Gamma({min(gnum)}) in the "
                         f"Macdonald-Mehta constant of {setup.name}")
    return ExactScalar.term(1, two_pow=two, gnum=gnum, gden=gden)
