"""The deformed Dirac family D = r^{1-a/2} D_k + b r^{-a/2-1} x + c r^{-a/2-1} x E.

Everything acts on :class:`~dunkldirac.poly.RadialExpr` and is exact.  The
closed expressions for D^2 and for the sum of squared components are kept
next to the compositional definitions so tests can confront them; the bridge
between the two is

    D^2 = -(sum_i D_i^2) + sum_{i<j} e_i e_j [D_i, D_j],

and the commutator part carries the factor l + cl - c, which vanishes exactly
on the commuting line c = 2/a - 1.

D is linear, and each context applies it term by term from its images on
unit terms (:class:`_UnitImages`), built once by the compositional formula
and kept for the context's lifetime on one radial lattice, which starts at
the denominator of a/2 (every shift D and x_a make is a multiple of it).
The images depend on (a, b, c) and on the group, so no two contexts share
them.  They pay off where D meets the same unit terms again, on the osp
report's chains and on the raising towers.  An input with ExactScalar
coefficients takes the composition itself.

x_a is a signed shift of each term, cheaper to apply than to look up, so it
has no images.  The osp report chains its sixteen applications of D and
x_a, and E and the scalar factors between them, on integer numerators over
one denominator from its input to its eight defects, and makes a Fraction
only for a nonzero defect term.

The components D_i have no images either: the factorization and
commutator rows of ``verify-factorization`` compose them directly, and so
does the Kelvin report (:class:`~dunkldirac.kelvin.KelvinReport`), which
meets each unit term once.  Three routines here are test oracles that no
suite runs, reference computations the tests confront D with:
dirac_squared_closed (D^2 through the bridge above, with
sum_components_squared_closed behind it), dirac_on_damped (D on
f e^{-r^a/a} by the chain rule) and dirac_from_commutator
(-(1/2)[x_a, r^{2-a} Delta_k], at the triple
:meth:`~dunkldirac.params.DeformParams.ansatz`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm

from .dunkl import DunklContext
from .params import DeformParams
from .poly import RadialExpr, _acc, _combine, _int_euler, _ints, _merge, _new


class _UnitImages:
    """A linear operator on RadialExpr applied term by term from its images
    on unit terms.

    The operator must commute with right multiplication by blades, as every
    operator that multiplies by Clifford elements from the left does.  So
    the image of r^s x^mono e_blade is the image of r^s x^mono, built once
    by ``image`` and kept in ``bases`` as integers over one denominator,
    times e_blade on the right.  The exact suites use the same property for
    whole reports: one per scalar monomial, its defects times each e_blade.

    Every key held here sits on one lattice ``den``: it starts as a lattice
    that holds every shift the operator makes, so images of units on it stay
    on it, and it grows to the lcm with each input's lattice, every stored
    key lifted at once.  Inputs are lifted onto it, so a term has one image
    and one id whatever lattice it arrives on, and every output sits on it.
    An image is kept under its int term key (n, mono, blade) as integers
    over one denominator, ``(d, ((id, num), ...))`` with d the lcm of the
    image's coefficient denominators and each id indexing ``keys``.

    One loop, :meth:`_sum`, puts the input coefficients and the images they
    meet over one common denominator and sums plain ints on the ids through
    :func:`~dunkldirac.poly._acc`, with the events and zero tests of a
    Fraction sum, so the terms come in the same order; the images are in
    normal form already, so nothing is folded again.  :meth:`apply`, the
    integer step, maps ``(common, {key: int})`` on the lattice to the same
    pair; a call on a RadialExpr with rational coefficients makes one
    ``Fraction(v, common)`` per output term.
    """

    __slots__ = ("image", "den", "images", "bases", "ids", "keys", "lookups")

    def __init__(self, image, den: int):
        self.image = image
        self.den = den
        self.images: dict = {}
        self.bases: dict = {}
        self.ids: dict = {}
        self.keys: list = []
        self.lookups = 0

    def lift(self, den: int):
        """Grow the lattice to lcm(self.den, den), every stored key lifted at once."""
        if self.den % den == 0:
            return
        by = lcm(self.den, den) // self.den
        self.images = {(n * by, mono, b): img for (n, mono, b), img in self.images.items()}
        self.bases = {(n * by, mono): base for (n, mono), base in self.bases.items()}
        self.keys = [(n * by, mono, b) for n, mono, b in self.keys]
        self.ids = {k: i for i, k in enumerate(self.keys)}
        self.den *= by

    def _build(self, m: int, key) -> tuple:
        n, mono, blade = key
        base = self.bases.get((n, mono))
        if base is None:
            img = self.image(_new(m, self.den, {(n, mono, 0): Fraction(1)}))
            if self.den % img.den:
                raise ValueError(f"image leaves the lattice 1/{self.den}")
            den, terms = _ints(img._on(self.den))
            base = self.bases[(n, mono)] = (den, _new(m, self.den, terms))
        den, base = base
        img = []
        for k, v in base.blade_mul_right(blade)._on(self.den).items():
            if k not in self.ids:
                self.ids[k] = len(self.keys)
                self.keys.append(k)
            img.append((self.ids[k], v))
        self.images[key] = img = (den, tuple(img))
        return img

    def _sum(self, m: int, terms: dict, by: int = 1) -> tuple:
        """(common, {id: int}): the image of terms, n on den / by."""
        self.lookups += len(terms)
        parts = []  # (image entries, numerator, denominator)
        for key, cf in terms.items():
            if by != 1:
                key = (key[0] * by, key[1], key[2])
            den, entries = self.images.get(key) or self._build(m, key)
            parts.append((entries, cf.numerator, cf.denominator * den))
        common = lcm(*(p[2] for p in parts))
        acc: dict = {}
        for entries, num, den in parts:
            scale = num * (common // den)
            for i, v in entries:
                _acc(acc, i, scale * v)
        return common, acc

    def apply(self, m: int, pair: tuple) -> tuple:
        """The integer step: the image of (common, {key: int}), keys on the
        lattice den, as the same pair on it."""
        d, acc = self._sum(m, pair[1])
        keys = self.keys
        return pair[0] * d, {keys[i]: v for i, v in acc.items()}

    def __call__(self, f: RadialExpr) -> RadialExpr:
        self.lift(f.den)
        common, acc = self._sum(f.m, f.terms, self.den // f.den)
        keys = self.keys
        return _new(f.m, self.den, {keys[i]: Fraction(v, common) for i, v in acc.items()})

    def info(self) -> dict:
        """Hits and misses; nothing is evicted, so the misses are the images stored."""
        return {"hits": self.lookups - len(self.images), "misses": len(self.images)}


class DeformedContext:
    """One member of the family: a reflection setup plus a parameter triple."""

    def __init__(self, dk: DunklContext, par: DeformParams):
        self.dk = dk
        self.par = par
        self.m = dk.m
        self.mu = Fraction(dk.setup.mu)
        # the effective dimension of the deformed family
        self.delta = par.a / 2 + (2 * par.b + self.mu - 1) / (1 + par.c)
        # every shift D or x_a makes is a multiple of 1/den(a/2)
        self._dirac = _UnitImages(self._dirac_image, (par.a / 2).denominator)

    def cache_info(self) -> dict:
        """Hits and misses of the unit-term images of D."""
        return {"dirac": self._dirac.info()}

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
        """D f = r^{1-a/2} D_k f + b r^{-a/2-1} x f + c r^{-a/2-1} x E f,
        from the unit images when f has rational coefficients."""
        if all(isinstance(c, (int, Fraction)) for c in f.terms.values()):
            return self._dirac(f)
        return self._dirac_image(f)

    def _dirac_image(self, f: RadialExpr) -> RadialExpr:
        p = self.par
        out = self.dk.dirac(f).mul_radial(1 - p.a / 2)
        if p.b:
            out = out + f.vector_mul_left(-p.a / 2 - 1).scale(p.b)
        if p.c:
            out = out + f.euler().vector_mul_left(-p.a / 2 - 1).scale(p.c)
        return out

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
        core = self.dk.dirac(f) - f.vector_mul_left(p.a - 2).scale(lam)
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
        denominator, D from its unit images (:meth:`_UnitImages.apply`) and
        x_a by :meth:`~dunkldirac.poly.RadialExpr.vector_mul_left`, which
        keeps ints ints; a Fraction is made only for a nonzero defect term.
        f must have rational coefficients.  The defects on f e_B are these
        times e_B (both operators act from the left), so verify-osp runs the
        report on scalar monomials only.
        """
        a, one_c, delta, m = self.par.a, 1 + self.par.c, self.delta, self.m
        den = lcm(self._dirac.den, f.den)
        self._dirac.lift(den)
        fi = _ints(f._on(den))
        d, e, shift = partial(self._dirac.apply, m), partial(_int_euler, den), a / 2 - 1
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
