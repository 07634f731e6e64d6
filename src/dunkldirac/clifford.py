"""Real Clifford algebra Cl(0, m): e_i e_j + e_j e_i = -2 delta_ij.

Basis blades are bitmasks (bit i-1 set means e_i participates), so the
geometric product reduces to an xor plus a sign from counting the
transpositions that sort the concatenated index lists, with an extra -1 for
every contracted pair.  The main anti-involution ("bar") reverses products
and flips the sign of each generator.

This module holds the blade arithmetic only.  A Clifford element is a
constant :class:`~dunkldirac.poly.RadialExpr`, one term per blade
(``RadialExpr.monomial(m, (0,) * m, coeff, blade=B)``), so it shares the
product, bar and output of every other expression.
"""

from __future__ import annotations

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
