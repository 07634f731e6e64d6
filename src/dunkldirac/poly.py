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


def _ints(terms: dict) -> tuple:
    """(common, {key: int}): rational coefficients over one denominator."""
    if not all(isinstance(c, (int, Fraction)) for c in terms.values()):
        raise ValueError("the integer reports take rational coefficients only")
    common = lcm(*(c.denominator for c in terms.values()))
    return common, {k: c.numerator * (common // c.denominator) for k, c in terms.items()}


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
