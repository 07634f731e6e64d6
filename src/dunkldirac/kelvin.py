"""Rescaling maps linking the deformed operator to the plain Dunkl picture.

Two term-wise substitutions P and Q turn radial powers r^s times a degree-d
polynomial into their images under the coordinate changes z = (a/2)^{1/a} x
r^{2/a - 1} and y' = (2/a)^{1/2} y r^{a/2 - 1}.  Their composition is the
constant (2/a)^{b/2}, and on the commuting line c = 2/a - 1 they conjugate
the Dunkl Dirac operator into the deformed one.  The Kelvin-type inversion
handles a = -2, the one negative exponent the family reaches.

All prefactors are powers of a/2, (2/a)^x stored as (a/2)^{-x}: ExactScalars
in the base a/2, the ring the norms of :mod:`dunkldirac.measure` live in.
P and Q act on a term by its class (n, d), s = n / den on the input's
lattice and d the degree of its monomial.  One table per map and input
lattice gives each class its image in ints: the new radial numerator on the
table's lattice and the exponent of a/2 on a second lattice, each computed
with Fractions once per class.  The tables are memoized per (a, b, map,
lattice), one lookup per application of P or Q, counted by
:func:`power_cache_info`.  p_map and q_map read them and scale by powers of
a/2 built once per process in a second memo, whose entries are shared and
must not be mutated.

:class:`KelvinReport` checks Q P = P Q = (2/a)^{b/2} and the intertwining
on rational inputs in integers, from the same tables: a value is
``(den, wden, common, {(n, w, mono, blade): int})``, the sum of
v / common (a/2)^{w / wden} r^{n / den} x^mono e_blade.  T_i and D_i keep w,
being rational-linear: each applies directly to the int numerators of one
exponent of a/2 at a time, and its output is cleared back to ints.  A
report meets each unit term once per operator, so it keeps no images.  A
defect makes one ExactScalar per (n, mono, blade) key with a nonzero
entry, and its canonical form decides the verdict, so whole powers of a
perfect-power a/2 fold as they do in the maps.  :class:`InversionReport`
runs the inversion rows the same way, with no power of a/2 to carry: D_k and
D apply in closed form to its int numerators, from the per-monomial memo of
:meth:`~dunkldirac.dunkl.DunklContext.dirac_monomial`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm

from .deformed import DeformedContext
from .dunkl import DunklContext
from .params import DeformParams
from .poly import RadialExpr, _acc, _combine, _ints, _new
from .scalars import ExactScalar


_power = lru_cache(maxsize=None)(ExactScalar.power)


class _Classes(dict):
    """{(n, d): (n', w)} for r^s p_d -> (a/2)^{weight h} r^{shift + slope h - d} p_d,
    h = s + d, on inputs s = n / source: n' on the lattice 1/den and w on
    1/wden, the lattices every image of the input lattice lies on.  A class
    is computed on its first lookup."""

    def __init__(self, source: int, shift: Fraction, slope: Fraction, weight: Fraction):
        super().__init__()
        self.source, self.shift, self.slope, self.weight = source, shift, slope, weight
        self.den = lcm(shift.denominator, (slope / source).denominator)
        self.wden = (weight / source).denominator

    def __missing__(self, key):
        n, d = key
        h = Fraction(n, self.source) + d
        s, w = self.shift + self.slope * h - d, self.weight * h
        out = self[key] = (s.numerator * (self.den // s.denominator),
                           w.numerator * (self.wden // w.denominator))
        return out


@lru_cache(maxsize=None)
def _classes(a: Fraction, b: Fraction, q: bool, den: int) -> _Classes:
    """The class table of Q (q true) or P on inputs on the lattice 1/den."""
    if q:
        return _Classes(den, -a * b / 2, a / 2, Fraction(-1, 2))
    return _Classes(den, b, 2 / a, 1 / a)


def power_cache_info():
    """cache_info() of the memo of P and Q class tables; each application of
    either map, by p_map, q_map or a report, makes one lookup."""
    return _classes.cache_info()


def _rescale(f: RadialExpr, a, table: _Classes) -> RadialExpr:
    """f under a class table, each class's power of a/2 read once per call.
    The monomials do not change; the output lattice is the lcm of the new
    exponents' own denominators."""
    half, wden = a / 2, table.wden
    per: dict = {}
    for n, mono, _blade in f.terms:
        if (key := (n, sum(mono))) not in per:
            n2, w = table[key]
            per[key] = (n2, _power(half, Fraction(w, wden)))
    den = lcm(*(table.den // gcd(n2, table.den) for n2, _scale in per.values()))
    by = table.den // den
    terms: dict = {}
    for (n, mono, blade), coeff in f.terms.items():
        n2, scale = per[(n, sum(mono))]
        terms[(n2 // by, mono, blade)] = coeff * scale
    return _new(f.m, den, terms)


def p_map(par: DeformParams, f: RadialExpr) -> RadialExpr:
    """P: r^s p_d -> (a/2)^{(s+d)/a} r^{b + 2s/a + (2/a - 1) d} p_d."""
    return _rescale(f, par.a, _classes(par.a, par.b, False, f.den))


def q_map(par: DeformParams, f: RadialExpr) -> RadialExpr:
    """Q: r^s p_d -> (2/a)^{(s+d)/2} r^{-ab/2 + as/2 + (a/2 - 1) d} p_d."""
    return _rescale(f, par.a, _classes(par.a, par.b, True, f.den))


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


def _inverted(mu: Fraction, den: int, terms: dict) -> dict:
    """The inversion's keys on the lattice 1/den, a multiple of den(mu):
    n -> (2 - mu) den - n - 2 d den, coefficients and order kept."""
    top = (2 * mu.denominator - mu.numerator) * (den // mu.denominator)
    return {(top - n - 2 * den * sum(mono), mono, b): c for (n, mono, b), c in terms.items()}


def inversion(dk: DunklContext, f: RadialExpr) -> RadialExpr:
    """Kelvin inversion r^s p_d -> r^{2 - mu - s - 2d} p_d; an involution."""
    mu = Fraction(dk.setup.mu)
    den = lcm(f.den, mu.denominator)
    return _new(f.m, den, _inverted(mu, den, f._on(den)))


def inversion_params(mu) -> DeformParams:
    """The tuple (-2, 2 - mu, -2), conjugate to plain Dunkl Dirac by inversion."""
    return DeformParams(-2, 2 - Fraction(mu), -2)


def dirac_via_inversion(dk: DunklContext, f: RadialExpr) -> RadialExpr:
    """I (Dunkl Dirac) I f, equal to the deformed operator at inversion_params."""
    return inversion(dk, dk.dirac(inversion(dk, f)))


# -- the verify-kelvin relations in integers ---------------------------------

def _graded(f: RadialExpr) -> tuple:
    """f as (den, wden, common, {(n, w, mono, blade): int}), no power of a/2."""
    common, terms = _ints(f.terms)
    return f.den, 1, common, {(n, 0, mono, b): v for (n, mono, b), v in terms.items()}


def _rescaled(classes, g: tuple) -> tuple:
    """P or Q, given as its class table per input lattice, on g."""
    den, wden, common, terms = g
    table = classes(den)
    out_w = lcm(wden, table.wden)
    by, tby = out_w // wden, out_w // table.wden
    out: dict = {}
    for (n, w, mono, b), v in terms.items():
        n2, dw = table[(n, sum(mono))]
        out[(n2, w * by + dw * tby, mono, b)] = v
    return table.den, out_w, common, out


def _powered(g: tuple, e: Fraction) -> tuple:
    """g times (a/2)^e."""
    den, wden, common, terms = g
    out_w = lcm(wden, e.denominator)
    by, sh = out_w // wden, e.numerator * (out_w // e.denominator)
    return den, out_w, common, {(n, w * by + sh, mono, b): v
                                for (n, w, mono, b), v in terms.items()}


def _applied(op, m: int, g: tuple) -> tuple:
    """A rational-linear operator on g, applied to the int numerators of
    each exponent of a/2 on its own; the outputs meet on the lcm of their
    lattices and over one denominator."""
    den, wden, common, terms = g
    split: dict = {}
    for (n, w, mono, b), v in terms.items():
        split.setdefault(w, {})[(n, mono, b)] = v
    images = [(w, op(_new(m, den, t))) for w, t in split.items()]
    den = lcm(den, *(f.den for _w, f in images))
    parts = [(w, _ints(f._on(den))) for w, f in images]
    total = lcm(*(d for _w, (d, _t) in parts))
    out: dict = {}
    for w, (d, t) in parts:
        s = total // d
        for (n, mono, b), v in t.items():
            out[(n, w, mono, b)] = v * s
    return den, wden, common * total, out


def _difference(base, m: int, g: tuple, h: tuple) -> RadialExpr:
    """g - h with one ExactScalar(base, {w / wden: v / common}) per
    (n, mono, blade) key that keeps a nonzero entry; a zero one drops out."""
    den, wden, common = lcm(g[0], h[0]), lcm(g[1], h[1]), lcm(g[2], h[2])
    acc: dict = {}
    for sign, (d, wd, c, terms) in ((1, g), (-1, h)):
        by, wby, s = den // d, wden // wd, sign * (common // c)
        for (n, w, mono, b), v in terms.items():
            _acc(acc, (n * by, w * wby, mono, b), s * v)
    keys: dict = {}
    for (n, w, mono, b), v in acc.items():
        keys.setdefault((n, mono, b), {})[Fraction(w, wden)] = Fraction(v, common)
    return _new(m, den, {k: c for k, powers in keys.items()
                         if (c := ExactScalar(base, powers))})


class KelvinReport:
    """Q P = P Q = (2/a)^{b/2} and (a/2)^{(b-1)/2} Q T_i P = D_i at one (a, b),
    as defects on rational inputs, computed in integers.

    The intertwining holds on the commuting triple ``par`` = (a, b, 2/a - 1).
    The report reads the exponents of a/2 from ``constant`` and
    ``prefactor``, and applies T_i and D_i at ``par`` directly.
    """

    def __init__(self, dk: DunklContext, par: DeformParams):
        a, b, m = par.a, par.b, dk.m
        self.m, self.base = m, a / 2
        self.par = DeformParams.commuting(a, b)
        self.constant = -b / 2
        self.prefactor = (b - 1) / 2
        self._p = partial(_classes, a, b, False)
        self._q = partial(_classes, a, b, True)
        dctx = DeformedContext(dk, self.par)
        self._t = [partial(dk.dunkl, i) for i in range(1, m + 1)]
        self._d = [partial(dctx.dirac_component, i) for i in range(1, m + 1)]

    def rescaling(self, f: RadialExpr) -> tuple:
        """(Q P f - C f, P Q f - C f) with C = (a/2)^constant."""
        g = _graded(f)
        c, p, q = _powered(g, self.constant), self._p, self._q
        return (_difference(self.base, self.m, _rescaled(q, _rescaled(p, g)), c),
                _difference(self.base, self.m, _rescaled(p, _rescaled(q, g)), c))

    def intertwining(self, f: RadialExpr) -> tuple:
        """(a/2)^prefactor Q T_i P f - D_i f for i = 1 .. m."""
        g = _graded(f)
        pg, m = _rescaled(self._p, g), self.m
        return tuple(
            _difference(self.base, m, _powered(_rescaled(self._q, _applied(t, m, pg)),
                                               self.prefactor), _applied(d, m, g))
            for t, d in zip(self._t, self._d))


class InversionReport:
    """I(I f) = f and I D_k I = D at inversion_params(mu), as defects on
    rational inputs, computed in integers.

    D_k and D apply to the int numerators of I f and of f by
    :meth:`~dunkldirac.dunkl.DunklContext.dirac_pair`, D with the weights of
    its context ``context``.  Both shifts, -2 and -(a/2 + 1) = 0, are whole,
    so every value stays on the input's lattice.
    """

    def __init__(self, dk: DunklContext):
        self.dk, self.m, self.mu = dk, dk.m, Fraction(dk.setup.mu)
        self.context = DeformedContext(dk, inversion_params(self.mu))

    def __call__(self, f: RadialExpr) -> tuple:
        """(I I f - f, I D_k I f - D f)."""
        mu, m, ctx = self.mu, self.m, self.context
        den = lcm(f.den, mu.denominator)
        common, terms = _ints(f._on(den))
        i_f = _inverted(mu, den, terms)
        c1, t1 = self.dk.dirac_pair(den, (common, i_f))
        c2, t2 = self.dk.dirac_pair(den, (common, terms), ctx.weights, ctx.shift)
        defects = (_combine((1, (common, _inverted(mu, den, i_f))), (-1, (common, terms))),
                   _combine((1, (c1, _inverted(mu, den, t1))), (-1, (c2, t2))))
        return tuple(_new(m, den, {k: Fraction(v, c) for k, v in t.items()})
                     for c, t in defects)
