"""The deformed Dirac family D = r^{1-a/2} D_k + b r^{-a/2-1} x + c r^{-a/2-1} x E.

Everything acts on :class:`~dunkldirac.poly.RadialExpr` and is exact.  The
closed expressions for D^2 and for the sum of squared components are kept
next to the compositional definitions so tests can confront them; the bridge
between the two is

    D^2 = -(sum_i D_i^2) + sum_{i<j} e_i e_j [D_i, D_j],

and the commutator part carries the factor l + cl - c, which vanishes exactly
on the commuting line c = 2/a - 1.

D applies in closed form, term by term: the radial shift rule of T_i gives

    D(r^s x^beta e_B) = r^{s-a/2-1} [((1+c) s + b + c|beta|) x x^beta
                                     + r^2 D_k x^beta] e_B,

so a context hands :meth:`~dunkldirac.dunkl.DunklContext.dirac` only its
weights ((1+c) q, b q, c q, q), q the lcm of the denominators of b and c,
and its shift -(a/2 + 1).  The folded D_k x^beta and x x^beta come from the
DunklContext's memo per monomial, which every triple on the group shares.
Inputs with rational coefficients are applied as ints over one denominator,
ExactScalar coefficients pass through as they are.

x_a is a signed shift of each term.  The osp report chains its sixteen
applications of D and x_a, and E and the scalar factors between them, on
integer numerators over one denominator from its input to its eight
defects, and makes a Fraction only for a nonzero defect term.

The components D_i are composed directly, by the factorization and
commutator rows of ``verify-factorization`` and by the Kelvin report
(:class:`~dunkldirac.kelvin.KelvinReport`).  Three routines here are test
oracles that no suite runs, reference computations the tests confront D
with: dirac_squared_closed (D^2 through the bridge above, with
sum_components_squared_closed behind it), dirac_on_damped (D on
f e^{-r^a/a} by the chain rule, with D_k composed as sum_i e_i T_i) and
dirac_from_commutator (-(1/2)[x_a, r^{2-a} Delta_k], at the triple
:meth:`~dunkldirac.params.DeformParams.ansatz`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm

from .dunkl import DunklContext
from .params import DeformParams
from .poly import RadialExpr, _combine, _int_euler, _ints, _merge, _new


class DeformedContext:
    """One member of the family: a reflection setup plus a parameter triple."""

    def __init__(self, dk: DunklContext, par: DeformParams):
        self.dk = dk
        self.par = par
        self.m = dk.m
        self.mu = Fraction(dk.setup.mu)
        # the effective dimension of the deformed family
        self.delta = par.a / 2 + (2 * par.b + self.mu - 1) / (1 + par.c)
        # D's weights ((1+c) q, b q, c q, q) and shift, for DunklContext.dirac
        q = lcm(par.b.denominator, par.c.denominator)
        self.weights = (int((1 + par.c) * q), int(par.b * q), int(par.c * q), q)
        self.shift = -(par.a / 2 + 1)

    # -- derived scalars ----------------------------------------------------

    def beta(self, ell: int) -> Fraction:
        return self.par.beta(ell)

    def gamma_ell(self, ell: int) -> Fraction:
        """Spectral step a/2 + (mu - 1 + 2*ell)/(1 + c); also 2 beta_ell + 2 ell + delta."""
        p = self.par
        return p.a / 2 + (self.mu - 1 + 2 * ell) / (1 + p.c)

    def is_singular(self, ell: int) -> bool:
        """True when gamma_ell / a is a non-positive integer.

        On that locus the raising tower degenerates: some raised function is
        annihilated by D, and the Laguerre parameter hits a pole.
        """
        q = self.gamma_ell(ell) / self.par.a
        return q.denominator == 1 and q <= 0

    # -- first-order pieces ---------------------------------------------

    def x_a(self, f: RadialExpr) -> RadialExpr:
        """Left multiplication by x_a = r^{a/2-1} x; squares to -r^a."""
        return f.vector_mul_left(self.par.a / 2 - 1)

    def dirac(self, f: RadialExpr) -> RadialExpr:
        """D f = r^{1-a/2} D_k f + b r^{-a/2-1} x f + c r^{-a/2-1} x E f, in
        closed form (:meth:`~dunkldirac.dunkl.DunklContext.dirac`)."""
        return self.dk.dirac(f, self.weights, self.shift)

    def dirac_component(self, i: int, f: RadialExpr) -> RadialExpr:
        """D_i = r^l T_i + b r^{l-2} x_i + c r^{l-1} x_i d_r  (i is 1-based)."""
        p = self.par
        l = p.l
        out = self.dk.dunkl(i, f).mul_radial(l)
        if p.b:
            out = out + f.mul_x(i).mul_radial(l - 2).scale(p.b)
        if p.c:
            out = out + f.partial_r().mul_x(i).mul_radial(l - 1).scale(p.c)
        return out

    def raising(self, f: RadialExpr) -> RadialExpr:
        """(D - 2(1+c) x_a) f, the step operator of the raised tower."""
        return self.dirac(f) - self.x_a(f).scale(2 * (1 + self.par.c))

    def dirac_on_damped(self, f: RadialExpr, lam=1) -> RadialExpr:
        """g with D(f e^{-lam r^a/a}) = g e^{-lam r^a/a}, by the chain rule.

        Every piece is computed from first principles: the reflection parts
        of T_i pass through the invariant exponential, the derivative parts
        pick up -lam r^{a-2} x_i, and the Euler term sees E e^{-lam r^a/a} =
        -lam r^a e^{-lam r^a/a}.  That this collapses to
        D f - lam (1+c) x_a f is the gauge identity, left to the tests.
        """
        p = self.par
        lam = Fraction(lam)
        core = RadialExpr(self.m)
        for i in range(1, self.m + 1):
            _merge(core, self.dk.dunkl(i, f).blade_mul_left(1 << (i - 1)))
        core = core - f.vector_mul_left(p.a - 2).scale(lam)
        out = core.mul_radial(1 - p.a / 2)
        if p.b:
            out = out + f.vector_mul_left(-p.a / 2 - 1).scale(p.b)
        if p.c:
            euler_damped = f.euler() - f.mul_radial(p.a).scale(lam)
            out = out + euler_damped.vector_mul_left(-p.a / 2 - 1).scale(p.c)
        return out

    # -- second-order: compositions and closed forms -----------------------

    def sum_components_squared(self, f: RadialExpr) -> RadialExpr:
        out = RadialExpr(self.m)
        for i in range(1, self.m + 1):
            _merge(out, self.dirac_component(i, self.dirac_component(i, f)))
        return out

    def laplacian_weighted(self, f: RadialExpr) -> RadialExpr:
        """r^{2-a} Delta_k f, the factorization target."""
        return self.dk.laplacian(f).mul_radial(2 - self.par.a)

    def sum_components_squared_closed(self, f: RadialExpr) -> RadialExpr:
        """Sum of D_i^2 collapsed to radial operators acting after Delta_k.

        sum_i D_i^2 = r^{2l} Delta_k
                      + b (b + l - 2 + c(l-1) + mu) r^{2l-2}
                      + c (c + 2) r^{2l} d_r^2
                      + (2bc + c^2 l + c l + c mu + 2b) r^{2l-1} d_r
                      + (l + cl - c) r^{2l-2} sum_i x_i T_i.
        """
        p = self.par
        l = p.l
        mu = self.mu
        out = self.dk.laplacian(f).mul_radial(2 * l)
        c0 = p.b * (p.b + l - 2 + p.c * (l - 1) + mu)
        if c0:
            out = out + f.mul_radial(2 * l - 2).scale(c0)
        c2 = p.c * (p.c + 2)
        if c2:
            out = out + f.partial_r().partial_r().mul_radial(2 * l).scale(c2)
        c1 = 2 * p.b * p.c + p.c * p.c * l + p.c * l + p.c * mu + 2 * p.b
        if c1:
            out = out + f.partial_r().mul_radial(2 * l - 1).scale(c1)
        cx = l + p.c * l - p.c
        if cx:
            out = out + self.dk.sum_x_dunkl(f).mul_radial(2 * l - 2).scale(cx)
        return out

    def dirac_squared_closed(self, f: RadialExpr) -> RadialExpr:
        """D^2 as minus the component sum plus the bivector commutator part.

        The bivector part is (l + cl - c) r^{2l-2} sum_{i<j} e_i e_j
        (x_i T_j - x_j T_i) and is what obstructs D^2 from being scalar.
        """
        p = self.par
        l = p.l
        out = -self.sum_components_squared_closed(f)
        cx = l + p.c * l - p.c
        if cx:
            tf = [self.dk.dunkl(i, f) for i in range(1, self.m + 1)]
            biv = RadialExpr(self.m)
            for i in range(1, self.m + 1):
                for j in range(i + 1, self.m + 1):
                    blade = (1 << (i - 1)) | (1 << (j - 1))
                    part = tf[j - 1].mul_x(i) - tf[i - 1].mul_x(j)
                    _merge(biv, part.blade_mul_left(blade))
            out = out + biv.mul_radial(2 * l - 2).scale(cx)
        return out

    def factorization_defect(self, f: RadialExpr) -> RadialExpr:
        """sum_i D_i^2 f - r^{2-a} Delta_k f; zero for the classified triples."""
        return self.sum_components_squared(f) - self.laplacian_weighted(f)

    def commute_defect(self, i: int, j: int, f: RadialExpr) -> RadialExpr:
        """[D_i, D_j] f by composition; zero for all f exactly when c = 2/a - 1."""
        return (self.dirac_component(i, self.dirac_component(j, f))
                - self.dirac_component(j, self.dirac_component(i, f)))

    def dirac_from_commutator(self, f: RadialExpr) -> RadialExpr:
        """-(1/2)[x_a, r^{2-a} Delta_k] f.

        Equals D f exactly when (b, c) come from
        :meth:`~dunkldirac.params.DeformParams.ansatz`.
        """
        lap = self.laplacian_weighted(f)
        inner = self.x_a(lap) - self.laplacian_weighted(self.x_a(f))
        return inner.scale(Fraction(-1, 2))

    # -- the superalgebra relations ------------------------------------------

    def osp_relations_report(self, f: RadialExpr) -> dict:
        """Defect of each osp(1|2) relation on f, keyed by a readable name.

        All eight defects are zero for every parameter triple; the report
        returns the actual residuals so a caller can display or test them.
        D and x_a are applied sixteen times on integer numerators over one
        denominator on the lattice lcm(den(a/2), f.den), D by
        :meth:`~dunkldirac.dunkl.DunklContext.dirac_pair` and x_a by
        :meth:`~dunkldirac.poly.RadialExpr.vector_mul_left`, which keeps ints
        ints; a Fraction is made only for a nonzero defect term.
        f must have rational coefficients.  The defects on f e_B are these
        times e_B (both operators act from the left), so verify-osp runs the
        report on scalar monomials only.
        """
        a, one_c, delta, m = self.par.a, 1 + self.par.c, self.delta, self.m
        den = lcm((a / 2).denominator, f.den)
        fi = _ints(f._on(den))
        d = partial(self.dk.dirac_pair, den, weights=self.weights, shift=self.shift)
        e, shift = partial(_int_euler, den), a / 2 - 1
        # den is a multiple of den(a/2), so x_a keeps the keys on it
        x = lambda pair: (pair[0], _new(m, den, pair[1]).vector_mul_left(shift).terms)
        ef = e(fi)
        df, xf = d(fi), x(fi)
        ddf, xxf, dxf, xdf = d(df), x(xf), d(xf), x(df)
        ddxf, dxxf, xxdf, xddf = d(dxf), d(xxf), x(xdf), x(ddf)
        ddxxf, xxddf, def_ = d(dxxf), x(xddf), d(ef)
        ddef, xef = d(def_), x(ef)
        xxef = x(xef)
        report = {
            "{x_a, D} = -2(1+c)(E + delta/2)":
                _combine((1, xdf), (1, dxf), (2 * one_c, ef), (one_c * delta, fi)),
            "[x_a^2, D] = a(1+c) x_a":
                _combine((1, xxdf), (-1, dxxf), (-a * one_c, xf)),
            "[D^2, x_a] = -a(1+c) D":
                _combine((1, ddxf), (-1, xddf), (a * one_c, df)),
            "[D^2, x_a^2] = 2a(1+c)^2 (E + delta/2)":
                _combine((1, ddxxf), (-1, xxddf), (-2 * a * one_c ** 2, ef),
                         (-a * one_c ** 2 * delta, fi)),
            "[E + delta/2, D] = -(a/2) D":
                _combine((1, e(df)), (-1, def_), (a / 2, df)),
            "[E + delta/2, x_a] = (a/2) x_a":
                _combine((1, e(xf)), (-1, xef), (-a / 2, xf)),
            "[E + delta/2, D^2] = -a D^2":
                _combine((1, e(ddf)), (-1, ddef), (a, ddf)),
            "[E + delta/2, x_a^2] = a x_a^2":
                _combine((1, e(xxf)), (-1, xxef), (-a, xxf)),
        }
        return {name: _new(m, den, {k: Fraction(v, c) for k, v in t.items()})
                for name, (c, t) in report.items()}


# -- classification of the scalar factorizations ---------------------------

def factorization_solutions_generic(mu) -> tuple:
    """All (a, b, c) with sum_i D_i^2 = r^{2-a} Delta_k for generic multiplicity.

    For generic k the operators 1, d_r, d_r^2 and sum_i x_i T_i acting after
    Delta_k are independent, so each coefficient in the closed component sum
    must vanish.  Exactly two triples survive: the classical (2, 0, 0) and the
    reciprocal (-2, 2 - mu, -2).
    """
    mu = Fraction(mu)
    return (DeformParams(2, 0, 0), DeformParams(-2, 2 - mu, -2))


def factorization_solutions_zero_k(m: int) -> tuple:
    """All (a, b, c) with sum_i D_i^2 = r^{2-a} Delta for vanishing multiplicity.

    At k = 0 the contraction sum_i x_i d_i equals r d_r, so its coefficient
    merges with the first-order radial term instead of vanishing on its own.
    The case split c in {0, -2} (from c(c+2) = 0) and the two branches of
    b (b + c(l-1) + m + l - 2) = 0 each leave one linear equation in l:

        c = 0,  b = 0:        l = 0
        c = 0,  b = m - 2:    l = 4 - 2m
        c = -2, b = 0:        l = 2m - 2
        c = -2, b = l - m:    l = 2

    Duplicates merge for small m (all four collapse pairwise at m = 2).
    """
    sols = []
    for c in (Fraction(0), Fraction(-2)):
        sq = (1 + c) ** 2
        branches = []
        # b = 0: the merged equation reads l (1+c)^2 = -c (m-1)
        l = -c * (m - 1) / sq
        branches.append((Fraction(0), l))
        # b = -(l (1+c) + m - 2 - c): substitution leaves the merged equation
        # linear in l with solution below, then b follows
        l = (c * (m - 1) - 2 * (1 + c) * (m - 2 - c)) / sq
        branches.append((-(l * (1 + c) + m - 2 - c), l))
        for b, l in branches:
            a = 2 - 2 * l
            if a == 0:
                continue
            par = DeformParams(a, b, c)
            if par not in sols:
                sols.append(par)
    return tuple(sols)
