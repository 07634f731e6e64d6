"""Radially shifted Clifford-valued polynomials in one normal form.

A :class:`RadialExpr` is a finite sum of terms ``coeff * r^s * x^mono * e_B``
with rational radial exponents ``s``, monomials ``x^mono`` in m variables, and
blade bitmasks ``B`` (see :mod:`dunkldirac.clifford`).  Coefficients are
``Fraction`` or, past the P/Q maps, :class:`~dunkldirac.scalars.ExactScalar`
(powers of a/2), the package's one exact scalar ring.  The constant
expressions (every term with s = 0 and mono = 0) are the Clifford algebra
Cl(0, m).

The exponents live on one lattice per expression: ``den`` is a positive int
and a term is stored under the key ``(n, mono, B)`` with s = n / den, so a
key is a tuple of ints and every dict operation hashes it in C.  An operator
that shifts s by a rational amount lifts the lattice to the lcm of ``den``
and the shift's denominator, once per call (every numerator times the same
factor, which keeps the terms in their order); operators never reduce the
lattice.  :meth:`RadialExpr.rational_terms` hands out each exponent as a
``Fraction`` to the readers that need the value rather than the key.

Every stored term has ``mono[-1] <= 1``: a factor x_m^{2j+e} is rewritten as
(r^2 - x_1^2 - ... - x_{m-1}^2)^j x_m^e the moment the term is written, by
:func:`_add_term`.  This form is unique.  R[x] is free over
R[x_1, ..., x_{m-1}, r^2] with basis {1, x_m}, and powers r^s whose exponents
lie in different classes mod 2 are independent over the rational functions.
On one lattice a term has one key, so two expressions are equal exactly when
their term dictionaries are once both sit on the lcm of their lattices, and
an expression is zero exactly when it has no terms.  Operators that change
only ``s``, the blades or the coefficients keep the form by themselves; every
operator that can raise the exponent of x_m writes through the helper.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add

from .clifford import blade_product, bar_sign, blade_indices
from .scalars import RATIONAL, ExactScalar

_ONE = Fraction(1)


@lru_cache(maxsize=None)
def r_squared_power(m: int, j: int) -> tuple:
    """Monomial expansion of (x_1^2 + ... + x_m^2)^j as ((mono, int), ...)."""
    if j == 0:
        return (((0,) * m, 1),)
    prev = dict(r_squared_power(m, j - 1))
    out: dict = {}
    for mono, c in prev.items():
        for i in range(m):
            lifted = mono[:i] + (mono[i] + 2,) + mono[i + 1:]
            out[lifted] = out.get(lifted, 0) + c
    return tuple(out.items())


@lru_cache(maxsize=None)
def _fold_table(m: int, j: int) -> tuple:
    """(r^2 - x_1^2 - ... - x_{m-1}^2)^j as ((r_exp, head mono, int), ...)."""
    return tuple((2 * (j - i), head, (-1) ** i * comb(j, i) * c)
                 for i in range(j + 1) for head, c in r_squared_power(m - 1, i))


def _bump(mono: tuple, i: int, by: int = 1) -> tuple:
    return mono[:i] + (mono[i] + by,) + mono[i + 1:]


def _acc(d: dict, key, val):
    """d[key] += val, deleting the entry when it reaches zero."""
    cur = d.get(key)
    val = val if cur is None else cur + val
    if val:
        d[key] = val
    elif cur is not None:
        del d[key]


def _combine(*parts) -> tuple:
    """sum of w * pair over the (w rational, (common, {key: int})) parts, as one pair."""
    common = lcm(*(w.denominator * d for w, (d, _t) in parts))
    out: dict = {}
    for w, (d, terms) in parts:
        s = w.numerator * (common // (w.denominator * d))
        for key, v in terms.items():
            _acc(out, key, s * v)
    return common, out


def _int_euler(den: int, pair: tuple) -> tuple:
    """:meth:`RadialExpr.euler` on a (common, {key: int}) pair on the lattice den."""
    common, terms = pair
    return common * den, {k: v * w for k, v in terms.items()
                           if (w := k[0] + den * sum(k[1]))}


def _lift(terms: dict, by: int) -> dict:
    """terms with every radial numerator times by, in the same order."""
    return {(n * by, mono, b): c for (n, mono, b), c in terms.items()}


def _new(m: int, den: int, terms: dict) -> "RadialExpr":
    out = RadialExpr.__new__(RadialExpr)
    out.m, out.den, out.terms = m, den, terms
    return out


def _onto(out: "RadialExpr", other: "RadialExpr") -> dict:
    """Lift out in place onto the lcm of both lattices; other's terms there."""
    if out.den == other.den:
        return other.terms
    den = lcm(out.den, other.den)
    out.terms = out._on(den)
    out.den = den
    return other._on(den)


def _merge(out: "RadialExpr", other: "RadialExpr"):
    """out += other in place, entry by entry through :func:`_acc`."""
    terms = _onto(out, other)
    mine = out.terms
    for key, c in terms.items():
        _acc(mine, key, c)


def _exponent(n: int, den: int):
    """n / den as an int on the unit lattice and a Fraction otherwise."""
    return n if den == 1 else Fraction(n, den)


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
    :func:`_acc`, with the events and zero tests of a Fraction sum, so the
    terms come in the same order; the images are in normal form already, so
    nothing is folded again.  :meth:`apply`, the integer step, maps
    ``(common, {key: int})`` on the lattice to the same pair; a call on a
    RadialExpr makes one ``Fraction(v, common)`` per output term.  An
    ExactScalar coefficient is split into its rational parts, one per term
    key of the scalar, each summed on its own column of ids and put back
    together as ExactScalars at the end, in the base of the inputs that
    carry a power of one (two such bases raise ValueError).
    """

    __slots__ = ("image", "den", "images", "bases", "ids", "keys", "lookups")

    def __init__(self, image, den: int = 1):
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
            img = self.image(_new(m, self.den, {(n, mono, 0): _ONE}))
            if self.den % img.den:
                raise ValueError(f"image leaves the lattice 1/{self.den}")
            terms = img._on(self.den)
            den = lcm(*(c.denominator for c in terms.values()))
            base = self.bases[(n, mono)] = (den, _new(m, self.den, {
                k: c.numerator * (den // c.denominator) for k, c in terms.items()}))
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
        """(common, {id: int}, columns): the image of terms, n on den / by;
        columns is (term keys, base) if a coefficient is an ExactScalar."""
        self.lookups += len(terms)
        parts = []            # (image entries, numerator, denominator, column)
        cols = {RATIONAL: 0}  # term key of an ExactScalar -> column
        scalars, base = False, None
        for key, cf in terms.items():
            if by != 1:
                key = (key[0] * by, key[1], key[2])
            den, entries = self.images.get(key) or self._build(m, key)
            if isinstance(cf, ExactScalar):
                scalars = True
                if cf.base != base and (powered := cf.powered_base()) is not None:
                    if base is not None:
                        raise ValueError(f"mixed bases {base} and {powered}")
                    base = powered
                for tk, c in cf.terms.items():
                    col = cols.setdefault(tk, len(cols))
                    parts.append((entries, c.numerator, c.denominator * den, col))
            else:
                parts.append((entries, cf.numerator, cf.denominator * den, 0))
        common = lcm(*(p[2] for p in parts))
        n = len(self.keys)
        acc: dict = {}
        for entries, num, den, col in parts:
            if col:
                entries = [(col * n + i, v) for i, v in entries]
            scale = num * (common // den)
            for i, v in entries:
                _acc(acc, i, scale * v)
        return common, acc, (list(cols), base) if scalars else None

    def apply(self, m: int, pair: tuple) -> tuple:
        """The integer step: the image of (common, {key: int}), keys on the
        lattice den, as the same pair on it."""
        d, acc, _ = self._sum(m, pair[1])
        keys = self.keys
        return pair[0] * d, {keys[i]: v for i, v in acc.items()}

    def __call__(self, f: "RadialExpr") -> "RadialExpr":
        self.lift(f.den)
        common, acc, scalars = self._sum(f.m, f.terms, self.den // f.den)
        keys = self.keys
        if scalars is None:
            return _new(f.m, self.den,
                        {keys[i]: Fraction(v, common) for i, v in acc.items()})
        tks, base = scalars
        n = len(keys)
        split: dict = {}
        for j, v in acc.items():
            col, i = divmod(j, n)
            split.setdefault(keys[i], {})[tks[col]] = Fraction(v, common)
        return _new(f.m, self.den,
                    {k: ExactScalar._canonical(base, t) for k, t in split.items()})

    def info(self) -> dict:
        """Hits and misses; nothing is evicted, so the misses are the images stored."""
        return {"hits": self.lookups - len(self.images), "misses": len(self.images)}


def _add_term(terms: dict, n: int, mono: tuple, blade: int, c, den: int):
    """Accumulate c r^(n/den) x^mono e_blade into terms in the normal form."""
    e = mono[-1]
    if e < 2:
        _acc(terms, (n, mono, blade), c)
        return
    j, e = divmod(e, 2)
    head = mono[:-1]
    for ds, lift, lc in _fold_table(len(mono), j):
        _acc(terms, (n + ds * den, (*map(add, head, lift), e), blade), c * lc)


class RadialExpr:
    """Sparse sum of ``coeff * r^s * x^mono * e_B`` terms, s = n / den."""

    __slots__ = ("m", "den", "terms")
    __hash__ = None

    def __init__(self, m: int, terms=None):
        """The sum of terms {(s, mono, blade): coeff} with rational s."""
        self.m = m
        self.den = 1
        self.terms = {}
        if terms:
            items = [(Fraction(s), tuple(mono), blade, c)
                     for (s, mono, blade), c in terms.items()]
            den = self.den = lcm(*(s.denominator for s, *_rest in items))
            for s, mono, blade, c in items:
                _add_term(self.terms, s.numerator * (den // s.denominator),
                          mono, blade, c, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, m: int, c):
        return _new(m, 1, {(0, (0,) * m, 0): c} if c else {})

    @classmethod
    def monomial(cls, m: int, mono, coeff=Fraction(1), blade: int = 0, r_exp=0):
        return cls(m, {(r_exp, tuple(mono), blade): coeff})

    def copy(self):
        return _new(self.m, self.den, dict(self.terms))

    def _on(self, den: int) -> dict:
        """The terms on the lattice den, a multiple of self.den."""
        return self.terms if den == self.den else _lift(self.terms, den // self.den)

    def rational_terms(self):
        """((s, mono, blade), coeff) per term in storage order, s a Fraction."""
        den = self.den
        for (n, mono, b), c in self.terms.items():
            yield (Fraction(n, den), mono, b), c

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RadialExpr):
            return NotImplemented
        out = self.copy()
        _merge(out, other)
        return out

    def __sub__(self, other):
        if not isinstance(other, RadialExpr):
            return NotImplemented
        out = self.copy()
        terms = _onto(out, other)
        mine = out.terms
        for key, c in terms.items():
            _acc(mine, key, -c)
        return out

    def __neg__(self):
        return _new(self.m, self.den, {k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        if not factor:
            return _new(self.m, self.den, {})
        return _new(self.m, self.den,
                    {k: v for k, c in self.terms.items() if (v := c * factor)})

    def __mul__(self, other):
        if isinstance(other, RadialExpr):
            return self.mul_expr(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    # -- multiplicative structure ------------------------------------------

    def mul_expr(self, other: "RadialExpr") -> "RadialExpr":
        """Full product; blades multiply in Cl(0, m), left factor first."""
        if other.m != self.m:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        right = other._on(den).items()
        t: dict = {}
        for (n1, m1, b1), c1 in self._on(den).items():
            for (n2, m2, b2), c2 in right:
                sign, b = blade_product(b1, b2)
                c = c1 * c2
                _add_term(t, n1 + n2, tuple(map(add, m1, m2)), b,
                          c if sign == 1 else -c, den)
        return _new(self.m, den, t)

    def _shifted(self, ds) -> tuple:
        """(lattice, lift factor, shift numerator) for a shift by r^ds."""
        ds = Fraction(ds)
        den = lcm(self.den, ds.denominator)
        return den, den // self.den, ds.numerator * (den // ds.denominator)

    def mul_radial(self, ds) -> "RadialExpr":
        """Multiply by r^ds."""
        if not ds:
            return self
        den, by, sh = self._shifted(ds)
        return _new(self.m, den,
                    {(n * by + sh, mono, b): c for (n, mono, b), c in self.terms.items()})

    def mul_x(self, i: int) -> "RadialExpr":
        """Multiply by the coordinate x_i (1-based)."""
        den = self.den
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            _add_term(t, n, _bump(mono, i - 1), b, c, den)
        return _new(self.m, den, t)

    def vector_mul_left(self, r_shift=0) -> "RadialExpr":
        """Left multiplication by r^r_shift * sum_i x_i e_i."""
        den, by, sh = self._shifted(r_shift)
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            n = n * by + sh
            for i in range(self.m):
                sign, nb = blade_product(1 << i, b)
                _add_term(t, n, _bump(mono, i), nb, c if sign == 1 else -c, den)
        return _new(self.m, den, t)

    def blade_mul_left(self, blade: int) -> "RadialExpr":
        """e_blade * self."""
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            sign, nb = blade_product(blade, b)
            t[(n, mono, nb)] = c if sign == 1 else -c
        return _new(self.m, self.den, t)

    def blade_mul_right(self, blade: int) -> "RadialExpr":
        """self * e_blade."""
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            sign, nb = blade_product(b, blade)
            t[(n, mono, nb)] = c if sign == 1 else -c
        return _new(self.m, self.den, t)

    def bar(self) -> "RadialExpr":
        """Main anti-involution applied to the Clifford part."""
        return _new(self.m, self.den,
                    {k: (c if bar_sign(k[2]) == 1 else -c) for k, c in self.terms.items()})

    # -- differential/radial operators ----------------------------------

    def euler(self) -> "RadialExpr":
        """E = sum x_i d_i; each term is homogeneous of degree s + |mono|."""
        den = self.den
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            w = n + den * sum(mono)
            if w:
                t[(n, mono, b)] = c * _exponent(w, den)
        return _new(self.m, den, t)

    def partial_r(self) -> "RadialExpr":
        """Radial derivative d_r = (1/r) E per homogeneous term."""
        den = self.den
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            w = n + den * sum(mono)
            if w:
                t[(n - den, mono, b)] = c * _exponent(w, den)
        return _new(self.m, den, t)

    def deriv(self, i: int) -> "RadialExpr":
        """Cartesian partial d_i, including the chain rule through r^s."""
        i -= 1
        den = self.den
        t: dict = {}
        for (n, mono, b), c in self.terms.items():
            if n:
                _add_term(t, n - 2 * den, _bump(mono, i), b, c * _exponent(n, den), den)
            e = mono[i]
            if e:
                _add_term(t, n, _bump(mono, i, -1), b, c * e, den)
        return _new(self.m, den, t)

    # -- structure, comparison ------------------------------------------

    def homogeneous_components(self) -> dict:
        """Split into Euler-homogeneous parts, keyed by degree s + |mono|."""
        den = self.den
        parts: dict = {}
        for (n, mono, b), c in self.terms.items():
            w = n + den * sum(mono)
            parts.setdefault(w, {})[(n, mono, b)] = c
        return {Fraction(w, den): _new(self.m, den, t) for w, t in parts.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, RadialExpr):
            den = lcm(self.den, other.den)
            return self.m == other.m and self._on(den) == other._on(den)
        return self.terms == RadialExpr.scalar(self.m, other).terms

    # -- output -----------------------------------------------------------

    def __repr__(self):
        return self.to_text()

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (n, mono, b) in sorted(self.terms, key=lambda k: (k[0], sum(k[1]), k[1], k[2])):
            c = self.terms[(n, mono, b)]
            factors = []
            if n:
                factors.append(f"r^({Fraction(n, self.den)})")
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e:
                    factors.append(f"x{i + 1}^{e}")
            if b:
                factors.append("".join(f"e{i}" for i in blade_indices(b)))
            factors.append(f"({c})")
            bits.append("*".join(factors))
        return " + ".join(bits)

    def to_json(self) -> list:
        """Terms grouped by r_exp, then monomial, then blade, each sorted:
        [{"r_exp", "poly": {"monomials": [[mono, {"m", "blades":
        [[indices, coeff], ...]}], ...]}}, ...] with exact values as strings."""
        by_n: dict = {}
        for (n, mono, b), c in self.terms.items():
            by_n.setdefault(n, {}).setdefault(mono, {})[b] = c
        out = []
        for n in sorted(by_n):
            monos = [[list(mono), {"m": self.m, "blades": [
                [list(blade_indices(b)), str(c)] for b, c in sorted(blades.items())]}]
                for mono, blades in sorted(by_n[n].items())]
            out.append({"r_exp": str(Fraction(n, self.den)), "poly": {"monomials": monos}})
        return out


def x_vector(m: int) -> RadialExpr:
    """The vector variable x = sum_i x_i e_i."""
    return _new(m, 1, {(0, _bump((0,) * m, i), 1 << i): Fraction(1) for i in range(m)})
