"""Rescaling maps linking the deformed operator to the plain Dunkl picture.

Two term-wise substitutions P and Q turn radial powers r^s times a degree-d
polynomial into their images under the coordinate changes z = (a/2)^{1/a} x
r^{2/a - 1} and y' = (2/a)^{1/2} y r^{a/2 - 1}.  Their composition is the
constant (2/a)^{b/2}, and on the commuting line c = 2/a - 1 they conjugate
the Dunkl Dirac operator into the deformed one.  The Kelvin-type inversion
handles a = -2, the one negative exponent the family reaches.

All prefactors are powers of a/2, (2/a)^x stored as (a/2)^{-x}: ExactScalars
in the base a/2, the ring the norms of :mod:`dunkldirac.measure` live in.
Each power is built once per process, in a memo keyed by (a/2, exponent) and
counted by :func:`power_cache_info`; its entries are shared and must not be
mutated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .deformed import DeformedContext
from .dunkl import DunklContext
from .params import DeformParams
from .poly import RadialExpr, _new
from .scalars import ExactScalar


_power = lru_cache(maxsize=None)(ExactScalar.power)


def power_cache_info():
    """cache_info() of the memo of powers of a/2 behind P, Q and their constants."""
    return _power.cache_info()


def _rescale(f: RadialExpr, a, power, new_s) -> RadialExpr:
    """r^s p_d -> (a/2)^{power(s + d)} r^{new_s(s, d)} p_d, term by term, both
    made once per distinct (s, d).  The monomials do not change, so the
    output is written onto the int lattice in normal form as it stands."""
    per: dict = {}
    for n, mono, _blade in f.terms:
        if (n, d := sum(mono)) not in per:
            s = Fraction(n, f.den)
            per[(n, d)] = (new_s(s, d), _power(a / 2, power(s + d)))
    den = lcm(*(s.denominator for s, _scale in per.values()))
    terms: dict = {}
    for (n, mono, blade), coeff in f.terms.items():
        s, scale = per[(n, sum(mono))]
        terms[(s.numerator * (den // s.denominator), mono, blade)] = coeff * scale
    return _new(f.m, den, terms)


def p_map(par: DeformParams, f: RadialExpr) -> RadialExpr:
    """P: r^s p_d -> (a/2)^{(s+d)/a} r^{b + 2s/a + (2/a - 1) d} p_d."""
    a, b = par.a, par.b
    return _rescale(f, a, lambda w: w / a,
                    lambda s, d: b + 2 * s / a + (Fraction(2) / a - 1) * d)


def q_map(par: DeformParams, f: RadialExpr) -> RadialExpr:
    """Q: r^s p_d -> (2/a)^{(s+d)/2} r^{-ab/2 + as/2 + (a/2 - 1) d} p_d."""
    a, b = par.a, par.b
    return _rescale(f, a, lambda w: -w / 2,
                    lambda s, d: -a * b / 2 + a * s / 2 + (a / 2 - 1) * d)


def pq_constant(par: DeformParams) -> ExactScalar:
    """QP = PQ = (2/a)^{b/2} times the identity."""
    return _power(par.a / 2, -par.b / 2)


def intertwined_component(dctx: DeformedContext, i: int, f: RadialExpr) -> RadialExpr:
    """(a/2)^{(b-1)/2} Q T_i P f, equal to the i-th deformed component.

    Holds exactly on the commuting line c = 2/a - 1 and nowhere else.
    """
    par = dctx.par
    if not par.is_commuting_choice():
        raise ValueError("intertwining needs c = 2/a - 1")
    pre = _power(par.a / 2, (par.b - 1) / 2)
    return q_map(par, dctx.dk.dunkl(i, p_map(par, f))).scale(pre)


def inversion(dk: DunklContext, f: RadialExpr) -> RadialExpr:
    """Kelvin inversion r^s p_d -> r^{2 - mu - s - 2d} p_d; an involution."""
    mu = dk.setup.mu
    return RadialExpr(f.m, {(2 - mu - s - 2 * sum(mono), mono, blade): coeff
                            for (s, mono, blade), coeff in f.rational_terms()})


def inversion_params(mu) -> DeformParams:
    """The tuple (-2, 2 - mu, -2), conjugate to plain Dunkl Dirac by inversion."""
    return DeformParams(-2, 2 - Fraction(mu), -2)


def dirac_via_inversion(dk: DunklContext, f: RadialExpr) -> RadialExpr:
    """I (Dunkl Dirac) I f, equal to the deformed operator at inversion_params."""
    return inversion(dk, dk.dirac(inversion(dk, f)))


# -- the pointwise coordinate map for numerics ------------------------------

def q_coordinate_map(par: DeformParams, pts: np.ndarray) -> np.ndarray:
    """y'(y) = (2/a)^{1/2} y r^{a/2 - 1}, so that (Qg)(y) = r^{-ab/2} g(y'(y))."""
    a = float(par.a)
    r = np.sqrt(np.sum(pts * pts, axis=-1, keepdims=True))
    return (2 / a) ** 0.5 * pts * r ** (a / 2 - 1)