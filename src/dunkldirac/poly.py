"""Radially shifted Clifford-valued polynomials in one normal form.

A :class:`RadialExpr` is a finite sum of terms ``coeff * r^s * x^mono * e_B``
with rational radial exponents ``s``, monomials ``x^mono`` in m variables, and
blade bitmasks ``B`` (see :mod:`dunkldirac.clifford`).  Coefficients are
``Fraction`` or :class:`~dunkldirac.scalars.ExactScalar`.  The constant
expressions (every term with s = 0 and mono = 0) are the Clifford algebra
Cl(0, m).

Every stored term has ``mono[-1] <= 1``: a factor x_m^{2j+e} is rewritten as
(r^2 - x_1^2 - ... - x_{m-1}^2)^j x_m^e the moment the term is written, by
:func:`_add_term`.  This form is unique.  R[x] is free over
R[x_1, ..., x_{m-1}, r^2] with basis {1, x_m}, and powers r^s whose exponents
lie in different classes mod 2 are independent over the rational functions.
So two expressions are equal exactly when their term dictionaries are, and
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
from .scalars import ExactScalar

_ZERO = Fraction(0)
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


def _merge(d: dict, terms: dict):
    """d += terms, entry by entry through :func:`_acc`."""
    for key, c in terms.items():
        _acc(d, key, c)


class _UnitImages:
    """A linear operator on RadialExpr applied term by term from its images
    on unit terms.

    The operator must commute with right multiplication by blades, as every
    operator that multiplies by Clifford elements from the left does.  So
    the image of r^s x^mono e_blade is the image of r^s x^mono, built once
    by ``image`` and kept in ``bases``, times e_blade on the right.  It is
    kept under its term key (s, mono, blade) as integers over one
    denominator, ``(den, ((id, num), ...))`` with den the lcm of the
    image's denominators and each id indexing ``keys``.

    A call puts its input coefficients and the images they meet over one
    common denominator, sums plain ints on the ids through :func:`_acc` and
    builds one ``Fraction(v, common)`` per output term.  The events and the
    zero tests are those of summing coeff * image in Fractions, so the
    output's terms come in the same order; the images are in normal form
    already, so nothing is folded again.  An ExactScalar coefficient (one
    base for the whole input) is split into its rational parts, one per
    exponent q of the base, and each part sums on its own column of ids;
    the columns are put back together as ExactScalars at the end.
    """

    __slots__ = ("image", "images", "bases", "ids", "keys", "lookups")

    def __init__(self, image):
        self.image = image
        self.images: dict = {}
        self.bases: dict = {}
        self.ids: dict = {}
        self.keys: list = []
        self.lookups = 0

    def _build(self, m: int, key) -> tuple:
        s, mono, blade = key
        base = self.bases.get((s, mono))
        if base is None:
            unit = RadialExpr(m)
            unit.terms[(s, mono, 0)] = _ONE
            base = self.bases[(s, mono)] = self.image(unit)
        terms = base.blade_mul_right(blade).terms
        den = lcm(*(c.denominator for c in terms.values()))
        img = []
        for k, c in terms.items():
            if k not in self.ids:
                self.ids[k] = len(self.keys)
                self.keys.append(k)
            img.append((self.ids[k], c.numerator * (den // c.denominator)))
        self.images[key] = img = (den, tuple(img))
        return img

    def __call__(self, f: "RadialExpr") -> "RadialExpr":
        self.lookups += len(f.terms)
        images = self.images
        parts = []            # (image entries, numerator, denominator, column)
        cols = {_ZERO: 0}     # exponent of the ExactScalar base -> column
        base = None
        for key, cf in f.terms.items():
            img = images.get(key)
            if img is None:
                img = self._build(f.m, key)
            den, entries = img
            if isinstance(cf, ExactScalar):
                if base is None:
                    base = cf.base
                elif cf.base != base:
                    raise ValueError(f"mixed bases {base} and {cf.base}")
                for q, c in cf.terms.items():
                    col = cols.setdefault(q, len(cols))
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
        out = RadialExpr(f.m)
        keys = self.keys
        if base is None:
            out.terms = {keys[i]: Fraction(v, common) for i, v in acc.items()}
            return out
        qs = list(cols)
        split: dict = {}
        for j, v in acc.items():
            col, i = divmod(j, n)
            split.setdefault(keys[i], {})[qs[col]] = Fraction(v, common)
        out.terms = {k: ExactScalar._canonical(base, t) for k, t in split.items()}
        return out

    def info(self) -> dict:
        """Hits and misses; nothing is evicted, so the misses are the images stored."""
        return {"hits": self.lookups - len(self.images), "misses": len(self.images)}


def _add_term(terms: dict, s, mono: tuple, blade: int, c):
    """Accumulate c r^s x^mono e_blade into terms in the normal form."""
    e = mono[-1]
    if e < 2:
        _acc(terms, (s, mono, blade), c)
        return
    j, e = divmod(e, 2)
    head = mono[:-1]
    for ds, lift, lc in _fold_table(len(mono), j):
        _acc(terms, (s + ds, (*map(add, head, lift), e), blade), c * lc)


class RadialExpr:
    """Sparse sum of ``coeff * r^s * x^mono * e_B`` terms."""

    __slots__ = ("m", "terms")
    __hash__ = None

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms = {}
        for (s, mono, blade), c in (terms or {}).items():
            _add_term(self.terms, Fraction(s), tuple(mono), blade, c)

    # -- constructors ---------------------------------------------------

    @classmethod
    def scalar(cls, m: int, c):
        out = cls(m)
        if c:
            out.terms[(_ZERO, (0,) * m, 0)] = c
        return out

    @classmethod
    def monomial(cls, m: int, mono, coeff=Fraction(1), blade: int = 0, r_exp=_ZERO):
        return cls(m, {(r_exp, tuple(mono), blade): coeff})

    def copy(self):
        out = RadialExpr(self.m)
        out.terms = dict(self.terms)
        return out

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RadialExpr):
            return NotImplemented
        out = self.copy()
        _merge(out.terms, other.terms)
        return out

    def __sub__(self, other):
        if not isinstance(other, RadialExpr):
            return NotImplemented
        out = self.copy()
        for key, c in other.terms.items():
            _acc(out.terms, key, -c)
        return out

    def __neg__(self):
        out = RadialExpr(self.m)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def scale(self, factor):
        out = RadialExpr(self.m)
        if factor:
            out.terms = {k: v for k, c in self.terms.items() if (v := c * factor)}
        return out

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
        out = RadialExpr(self.m)
        t = out.terms
        for (s1, m1, b1), c1 in self.terms.items():
            for (s2, m2, b2), c2 in other.terms.items():
                sign, b = blade_product(b1, b2)
                c = c1 * c2
                _add_term(t, s1 + s2, tuple(map(add, m1, m2)), b, c if sign == 1 else -c)
        return out

    def mul_radial(self, ds) -> "RadialExpr":
        """Multiply by r^ds."""
        ds = Fraction(ds)
        if not ds:
            return self
        out = RadialExpr(self.m)
        out.terms = {(s + ds, mono, b): c for (s, mono, b), c in self.terms.items()}
        return out

    def mul_x(self, i: int) -> "RadialExpr":
        """Multiply by the coordinate x_i (1-based)."""
        out = RadialExpr(self.m)
        for (s, mono, b), c in self.terms.items():
            _add_term(out.terms, s, _bump(mono, i - 1), b, c)
        return out

    def vector_mul_left(self, r_shift=_ZERO) -> "RadialExpr":
        """Left multiplication by r^r_shift * sum_i x_i e_i."""
        r_shift = Fraction(r_shift)
        out = RadialExpr(self.m)
        t = out.terms
        for (s, mono, b), c in self.terms.items():
            for i in range(self.m):
                sign, nb = blade_product(1 << i, b)
                _add_term(t, s + r_shift, _bump(mono, i), nb, c if sign == 1 else -c)
        return out

    def blade_mul_left(self, blade: int) -> "RadialExpr":
        """e_blade * self."""
        out = RadialExpr(self.m)
        for (s, mono, b), c in self.terms.items():
            sign, nb = blade_product(blade, b)
            out.terms[(s, mono, nb)] = c if sign == 1 else -c
        return out

    def blade_mul_right(self, blade: int) -> "RadialExpr":
        """self * e_blade."""
        out = RadialExpr(self.m)
        for (s, mono, b), c in self.terms.items():
            sign, nb = blade_product(b, blade)
            out.terms[(s, mono, nb)] = c if sign == 1 else -c
        return out

    def bar(self) -> "RadialExpr":
        """Main anti-involution applied to the Clifford part."""
        out = RadialExpr(self.m)
        out.terms = {k: (c if bar_sign(k[2]) == 1 else -c) for k, c in self.terms.items()}
        return out

    # -- differential/radial operators ----------------------------------

    def euler(self) -> "RadialExpr":
        """E = sum x_i d_i; each term is homogeneous of degree s + |mono|."""
        out = RadialExpr(self.m)
        for (s, mono, b), c in self.terms.items():
            w = s + sum(mono)
            if w:
                out.terms[(s, mono, b)] = c * w
        return out

    def partial_r(self) -> "RadialExpr":
        """Radial derivative d_r = (1/r) E per homogeneous term."""
        out = RadialExpr(self.m)
        for (s, mono, b), c in self.terms.items():
            w = s + sum(mono)
            if w:
                out.terms[(s - 1, mono, b)] = c * w
        return out

    def deriv(self, i: int) -> "RadialExpr":
        """Cartesian partial d_i, including the chain rule through r^s."""
        i -= 1
        out = RadialExpr(self.m)
        t = out.terms
        for (s, mono, b), c in self.terms.items():
            if s:
                _add_term(t, s - 2, _bump(mono, i), b, c * s)
            e = mono[i]
            if e:
                _add_term(t, s, _bump(mono, i, -1), b, c * e)
        return out

    # -- structure, comparison ------------------------------------------

    def homogeneous_components(self) -> dict:
        """Split into Euler-homogeneous parts, keyed by degree s + |mono|."""
        parts: dict = {}
        for (s, mono, b), c in self.terms.items():
            h = s + sum(mono)
            parts.setdefault(h, RadialExpr(self.m)).terms[(s, mono, b)] = c
        return parts

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, RadialExpr):
            return self.m == other.m and self.terms == other.terms
        return self.terms == RadialExpr.scalar(self.m, other).terms

    # -- output -----------------------------------------------------------

    def __repr__(self):
        return self.to_text()

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (s, mono, b) in sorted(self.terms, key=lambda k: (k[0], sum(k[1]), k[1], k[2])):
            c = self.terms[(s, mono, b)]
            factors = []
            if s:
                factors.append(f"r^({s})")
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
        by_s: dict = {}
        for (s, mono, b), c in self.terms.items():
            by_s.setdefault(s, {}).setdefault(mono, {})[b] = c
        out = []
        for s in sorted(by_s):
            monos = [[list(mono), {"m": self.m, "blades": [
                [list(blade_indices(b)), str(c)] for b, c in sorted(blades.items())]}]
                for mono, blades in sorted(by_s[s].items())]
            out.append({"r_exp": str(s), "poly": {"monomials": monos}})
        return out


def x_vector(m: int) -> RadialExpr:
    """The vector variable x = sum_i x_i e_i."""
    out = RadialExpr(m)
    for i in range(m):
        out.terms[(_ZERO, _bump((0,) * m, i), 1 << i)] = Fraction(1)
    return out
