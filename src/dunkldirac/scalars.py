"""Exact scalars in the ring Q[base**q : q rational], for a fixed rational base.

The deformation calculus needs exact coefficients of the form c * (a/2)**q
with rational c and q (the Kelvin-type rescalings produce powers such as
(a/2)**(1/a)).  An :class:`ExactScalar` stores a sparse map from exponents to
rational coefficients and folds every power that happens to be rational, so
equality is decided by dictionary comparison.  Plain rationals embed as the
exponent-0 term, and arithmetic interoperates with int and Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _int_nth_root(x: int, n: int):
    """Return r with r**n == x, or None.  Requires x >= 0, n >= 1."""
    if x < 0:
        raise ValueError("negative radicand")
    if n == 1 or x in (0, 1):
        return x
    lo, hi = 0, 1
    while hi ** n < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == x else None


def rational_power(base: Fraction, exp: Fraction):
    """Exact value of base**exp as a Fraction, or None when irrational.

    For negative bases only odd-denominator exponents are real; even
    denominators raise, since such a power has no real value to represent.
    """
    base = Fraction(base)
    exp = Fraction(exp)
    if base == 0:
        raise ValueError("zero base")
    n, d = exp.numerator, exp.denominator
    sign = 1
    if base < 0:
        if d % 2 == 0:
            raise ValueError(f"({base})**({exp}) is not real")
        base = -base
        sign = (-1) ** n
    if d == 1:
        return sign * base ** n
    p = _int_nth_root(base.numerator, d)
    q = _int_nth_root(base.denominator, d)
    if p is None or q is None:
        return None
    return sign * Fraction(p, q) ** n


class ExactScalar:
    """A finite sum  sum_q  c_q * base**q  with c_q, q, base rational."""

    __slots__ = ("base", "terms")
    __hash__ = None

    def __init__(self, base, terms=None):
        base = Fraction(base)
        if base == 0:
            raise ValueError("base must be nonzero")
        clean: dict = {}
        for q, c in (terms or {}).items():
            q = Fraction(q)
            c = Fraction(c)
            if not c:
                continue
            folded = rational_power(base, q) if q else Fraction(1)
            if folded is not None:
                q, c = Fraction(0), c * folded
            else:
                # canonical exponent in [0, 1): the whole part is rational
                whole = q.numerator // q.denominator
                if whole:
                    c *= base ** whole
                    q -= whole
            clean[q] = clean.get(q, Fraction(0)) + c
        self.base = base
        self.terms = {q: c for q, c in clean.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def power(cls, base, exp, coeff=1):
        return cls(base, {Fraction(exp): Fraction(coeff)})

    @classmethod
    def _canonical(cls, base: Fraction, terms: dict):
        """Wrap terms already in canonical form, skipping the folding."""
        out = object.__new__(cls)
        out.base = base
        out.terms = terms
        return out

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self):
        return all(q == 0 for q in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"{self!r} is irrational")
        return self.terms[Fraction(0)]

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        # canonical terms stay canonical here: a rational scalar has only
        # the exponent 0, which no base folds
        if isinstance(other, ExactScalar):
            if other.base == self.base:
                return other
            if not other.terms or other.is_rational():
                return ExactScalar._canonical(self.base, other.terms)
            if not self.terms or self.is_rational():
                return None  # caller re-dispatches on other's base
            raise ValueError(f"mixed bases {self.base} and {other.base}")
        if isinstance(other, Rational):
            return ExactScalar._canonical(
                self.base, {Fraction(0): Fraction(other)} if other else {})
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return other + self.as_fraction()
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for q, c in o.terms.items():
            out[q] = out.get(q, Fraction(0)) + c
        # both sides are canonical in one base, so only cancelled terms go
        return ExactScalar._canonical(self.base, {q: c for q, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._canonical(self.base, {q: -c for q, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, ExactScalar) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            # a nonzero rational keeps every exponent in [0, 1) and unfoldable
            other = Fraction(other)
            return ExactScalar._canonical(
                self.base, {q: c * other for q, c in self.terms.items()} if other else {})
        o = self._coerce(other)
        if o is None:
            return other * self.as_fraction()
        if o is NotImplemented:
            return NotImplemented
        out: dict = {}
        for q1, c1 in self.terms.items():
            for q2, c2 in o.terms.items():
                q = q1 + q2
                out[q] = out.get(q, Fraction(0)) + c1 * c2
        return ExactScalar(self.base, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactScalar(self.base, {Fraction(0): Fraction(1)})
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def inverse(self):
        """Inverse of a single-term scalar; general sums are not invertible here."""
        if len(self.terms) != 1:
            raise ValueError(f"cannot invert a {len(self.terms)}-term scalar exactly")
        (q, c), = self.terms.items()
        return ExactScalar(self.base, {-q: Fraction(1) / c})

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, ExactScalar):
            o = self._coerce(other)
            if o is None:
                o = ExactScalar(other.base, self.terms)
                return o / other
            return self * o.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return ExactScalar(self.base, {Fraction(0): Fraction(other)}) * self.inverse()

    # -- comparison / output --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Rational):
            other = ExactScalar(self.base, {Fraction(0): Fraction(other)})
        if not isinstance(other, ExactScalar):
            return NotImplemented
        diff = self - other
        return not diff.terms

    def __float__(self):
        total = 0.0
        for q, c in self.terms.items():
            b = float(self.base)
            if b < 0:
                # only odd-denominator exponents survive construction
                p = -((-b) ** float(q)) if q.numerator % 2 else (-b) ** float(q)
            else:
                p = b ** float(q)
            total += float(c) * p
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for q in sorted(self.terms):
            c = self.terms[q]
            if q == 0:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(f"({self.base})^({q})")
            else:
                bits.append(f"{c}*({self.base})^({q})")
        return " + ".join(bits)
