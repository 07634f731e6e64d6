"""Exact scalars: the one ring every exact constant of the package lives in.

Norms and Gaussian masses are Gamma values times rational powers of a/2 and
2; the P/Q rescalings multiply by rational powers of a/2.  An
:class:`ExactScalar` holds both as a finite sum of
c * base^q * 2^p * prod_i Gamma(n_i) / prod_j Gamma(d_j), all rational, one
base per value (a/2 wherever the package makes one), stored as a map from
the term key ``(q, p, (n_i, ...), (d_j, ...))`` to c.  Every term is put in
one canonical form when it is written, so equality is a dictionary compare:

* a power of the base is read as a power of its largest root r, base = r^e
  (found by :func:`rational_power`): the whole power of r folds into c, so
  q stays in [0, 1/e) and a rational power folds entirely; a base +-2^j
  moves its powers into p; for a negative base only odd roots are real;
* the whole part of p folds into c, so p stays in [0, 1);
* each Gamma argument moves into (0, 1] by the functional equation, and
  equal arguments above and below cancel; a pole raises in a numerator and
  kills the term in a denominator.

Plain rationals are the key ``(0, 0, (), ())`` and mix with int and
Fraction.  A value with no power of its base mixes with any base; powers of
two different bases raise ValueError.  Each term prints as
``(c)*(a/2)^(q)*2^(p)*G(n)*/G(d)`` without its unit factors, terms joined by
`` + ``; ``float()`` evaluates in 40-digit mpmath.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Rational

_ZERO = Fraction(0)
_ONE = Fraction(1)
RATIONAL = (0, 0, (), ())   # the key of the rational part; a zero exponent is an int


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


@lru_cache(maxsize=None)
def _root(num: int, den: int) -> tuple:
    """(r, e) with base = num/den = r^e and e as large as possible, odd for a
    negative base.  Then r is no perfect power, so r^f is irrational for every
    non-integer f (if r^(n/d) = s, both parts of r are d-th powers)."""
    base = Fraction(num, den)
    for e in range(max(abs(num), den).bit_length(), 1, -1):
        if (base > 0 or e % 2) and (r := rational_power(base, Fraction(1, e))):
            return r, e
    return base, 1


def two_exponent(fr: Fraction):
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
    mult = _ONE
    while z > 1:
        z -= 1
        mult = mult / z if invert else mult * z
    while z <= 0:
        mult = mult * z if invert else mult / z
        z += 1
    return z, mult


class ExactScalar:
    """Sum of c * base^q * 2^p * prod Gamma(n_i) / prod Gamma(d_j) by term key."""

    __slots__ = ("base", "terms")
    __hash__ = None

    def __init__(self, base=None, terms=None):
        """The sum of terms {key: c}; a key is a full term key or, for the
        plain powers c * base^q, just the exponent q."""
        self.base = None if base is None else Fraction(base)
        if self.base == 0:
            raise ValueError("base must be nonzero")
        self.terms = {}
        for key, c in (terms or {}).items():
            q, p, gnum, gden = key if isinstance(key, tuple) else (key, 0, (), ())
            self._accumulate(Fraction(q), Fraction(p), tuple(map(Fraction, gnum)),
                             tuple(map(Fraction, gden)), Fraction(c))

    def _accumulate(self, q, p, gnum, gden, c):
        """terms += c * base^q * 2^p * prod G(gnum) / prod G(gden), in canonical form."""
        if not c:
            return
        base = self.base
        if q:
            if base is None:
                raise ValueError("a power of the base needs a base")
            if base < 0 and q.denominator % 2 == 0:
                raise ValueError(f"({base})**({q}) is not real")
            if (j := two_exponent(abs(base))) is not None:  # a sign times 2^j
                c = -c if base < 0 and q.numerator % 2 else c
                p, q = p + j * q, 0
            else:
                r, e = _root(base.numerator, base.denominator)
                if whole := q.numerator * e // q.denominator:
                    c, q = c * r ** whole, q - Fraction(whole, e)
        if p and (whole := p.numerator // p.denominator):
            c, p = c * Fraction(2) ** whole, p - whole
        if gnum or gden:
            num, den = [], []
            for z in gnum:
                z, mult = _reduce_gamma(z, invert=False)
                c *= mult
                if z != 1:
                    num.append(z)
            for z in gden:
                red = _reduce_gamma(z, invert=True)
                if red is None:
                    return
                z, mult = red
                c *= mult
                if z != 1:
                    if z in num:
                        num.remove(z)
                    else:
                        den.append(z)
            gnum, gden = tuple(sorted(num)), tuple(sorted(den))
        key = (q or 0, p or 0, gnum, gden)
        cur = self.terms.get(key)
        c = c if cur is None else cur + c
        if c:
            self.terms[key] = c
        elif cur is not None:
            del self.terms[key]

    # -- constructors -------------------------------------------------

    @classmethod
    def term(cls, coeff=1, apow=0, two_pow=0, gnum=(), gden=(), base=None):
        """coeff * base^apow * 2^two_pow * prod Gamma(gnum) / prod Gamma(gden)."""
        return cls(base, {(apow, two_pow, tuple(gnum), tuple(gden)): coeff})

    @classmethod
    def power(cls, base, exp, coeff=1):
        """coeff * base^exp."""
        return cls.term(coeff, apow=exp, base=base)

    @classmethod
    def _canonical(cls, base, terms: dict):
        """Wrap terms already in canonical form, skipping the folding."""
        out = object.__new__(cls)
        out.base, out.terms = base, terms
        return out

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def powered_base(self):
        """The base when some term carries a power of it, else None."""
        return self.base if any(key[0] for key in self.terms) else None

    # -- ring operations ----------------------------------------------

    def _merged_base(self, other: "ExactScalar"):
        """The base of a result that mixes self and other."""
        if other.base == self.base or other.powered_base() is None:
            return self.base
        mine = self.powered_base()
        if mine is None:
            return other.base
        raise ValueError(f"mixed bases {mine} and {other.base}")

    def __add__(self, other):
        if isinstance(other, ExactScalar):
            base, theirs = self._merged_base(other), other.terms
        elif isinstance(other, Rational):
            base, theirs = self.base, {RATIONAL: Fraction(other)}
        else:
            return NotImplemented
        out = dict(self.terms)
        for key, c in theirs.items():
            out[key] = out.get(key, _ZERO) + c
        # both sides are canonical, so only cancelled terms go
        return ExactScalar._canonical(base, {k: c for k, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._canonical(self.base, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, ExactScalar) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            # a nonzero rational scales the coefficients and keeps every key
            other = Fraction(other)
            return ExactScalar._canonical(
                self.base, {k: c * other for k, c in self.terms.items()} if other else {})
        if not isinstance(other, ExactScalar):
            return NotImplemented
        out = ExactScalar(self._merged_base(other))
        for (q1, p1, n1, d1), c1 in self.terms.items():
            for (q2, p2, n2, d2), c2 in other.terms.items():
                out._accumulate(q1 + q2, p1 + p2, n1 + n2, d1 + d2, c1 * c2)
        return out

    __rmul__ = __mul__

    # -- comparison / output --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.terms == ({RATIONAL: Fraction(other)} if other else {})
        if not isinstance(other, ExactScalar):
            return NotImplemented
        self._merged_base(other)  # raises for powers of two different bases
        return self.terms == other.terms

    def numeric(self):
        """The value as a 40-digit mpmath number."""
        import mpmath

        mp = lambda x: mpmath.mpf(x.numerator) / x.denominator
        with mpmath.workdps(40):
            total = mpmath.mpf(0)
            for (q, p, gnum, gden), c in self.terms.items():
                val = mp(c)
                if q:
                    base = self.base
                    if base < 0:
                        # only odd-denominator exponents survive construction
                        base, val = -base, val * (-1) ** q.numerator
                    val *= mpmath.power(mp(base), mp(q))
                if p:
                    val *= mpmath.power(2, mp(p))
                for z in gnum:
                    val *= mpmath.gamma(mp(z))
                for z in gden:
                    val /= mpmath.gamma(mp(z))
                total += val
            return total

    def __float__(self):
        return float(self.numeric())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (q, p, gnum, gden), c in sorted(self.terms.items()):
            parts = [f"({c})"]
            if q:
                parts.append(f"(a/2)^({q})")
            if p:
                parts.append(f"2^({p})")
            parts.extend(f"G({z})" for z in gnum)
            parts.extend(f"/G({z})" for z in gden)
            bits.append("*".join(parts))
        return " + ".join(bits)
