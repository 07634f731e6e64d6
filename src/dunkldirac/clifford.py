"""Real Clifford algebra Cl(0, m): e_i e_j + e_j e_i = -2 delta_ij.

Basis blades are bitmasks (bit i-1 set means e_i participates), so the
geometric product reduces to an xor plus a sign from counting the
transpositions that sort the concatenated index lists, with an extra -1 for
every contracted pair.  The main anti-involution ("bar") reverses products
and flips the sign of each generator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def blade_product(a: int, b: int) -> tuple[int, int]:
    """Sign and bitmask of e_A * e_B in Cl(0, m)."""
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:  # each e_i e_i contracts to -1
        sign = -sign
    return sign, a ^ b


def bar_sign(blade: int) -> int:
    """Sign of bar(e_A) relative to e_A: (-1)^(g(g+1)/2) for grade g."""
    g = blade.bit_count()
    return -1 if (g * (g + 1) // 2) & 1 else 1


def blade_indices(blade: int) -> tuple[int, ...]:
    """1-based generator indices of a blade bitmask, ascending."""
    out = []
    i = 1
    while blade:
        if blade & 1:
            out.append(i)
        blade >>= 1
        i += 1
    return tuple(out)


def blade_from_indices(indices) -> tuple[int, int]:
    """(sign, bitmask) for a product e_{i1} e_{i2} ... with arbitrary order."""
    sign, blade = 1, 0
    for i in indices:
        if i < 1:
            raise ValueError("generator indices are 1-based")
        s, blade = blade_product(blade, 1 << (i - 1))
        sign *= s
    return sign, blade


class Multivector:
    """Sparse multivector: map from blade bitmask to coefficient."""

    __slots__ = ("m", "comps")
    __hash__ = None

    def __init__(self, m: int, comps=None):
        self.m = m
        self.comps = {}
        for blade, c in (comps or {}).items():
            if blade >> m:
                raise ValueError(f"blade {blade:#b} outside Cl(0,{m})")
            if c:
                self.comps[blade] = self.comps.get(blade, 0) + c
        self.comps = {b: c for b, c in self.comps.items() if c}

    @classmethod
    def scalar(cls, m: int, c):
        return cls(m, {0: Fraction(c) if isinstance(c, (int, str)) else c})

    @classmethod
    def basis_vector(cls, m: int, i: int):
        return cls(m, {1 << (i - 1): Fraction(1)})

    @classmethod
    def from_indices(cls, m: int, indices, coeff=1):
        sign, blade = blade_from_indices(indices)
        return cls(m, {blade: sign * (Fraction(coeff) if isinstance(coeff, (int, str)) else coeff)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.comps)
        for b, c in other.comps.items():
            out[b] = out.get(b, 0) + c
        return Multivector(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.m, {b: -c for b, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def _coerce(self, other):
        if isinstance(other, Multivector):
            if other.m != self.m:
                raise ValueError("dimension mismatch")
            return other
        return Multivector.scalar(self.m, other)

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return Multivector(self.m, {b: c * other for b, c in self.comps.items()})
        if other.m != self.m:
            raise ValueError("dimension mismatch")
        out: dict = {}
        for b1, c1 in self.comps.items():
            for b2, c2 in other.comps.items():
                sign, b = blade_product(b1, b2)
                out[b] = out.get(b, 0) + sign * c1 * c2
        return Multivector(self.m, out)

    def __rmul__(self, other):
        # scalar * multivector; scalars commute with everything
        return Multivector(self.m, {b: other * c for b, c in self.comps.items()})

    def bar(self):
        return Multivector(self.m, {b: bar_sign(b) * c for b, c in self.comps.items()})

    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        if isinstance(other, Multivector) and other.m != self.m:
            return False
        return (self - other).is_zero()

    def __repr__(self):
        return self.to_text()

    def to_text(self) -> str:
        if not self.comps:
            return "0"
        bits = []
        for b in sorted(self.comps, key=lambda x: (x.bit_count(), x)):
            c = self.comps[b]
            name = "".join(f"e{i}" for i in blade_indices(b)) or "1"
            bits.append(f"{c} {name}" if name != "1" else f"{c}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "blades": [[list(blade_indices(b)), str(c)] for b, c in
                       sorted(self.comps.items())],
        }

    @classmethod
    def from_json(cls, data: dict):
        m = int(data["m"])
        out = cls(m, {})
        for indices, coeff in data["blades"]:
            out = out + cls.from_indices(m, indices, Fraction(coeff))
        return out
