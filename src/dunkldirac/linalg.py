"""Exact linear algebra over Q: primitive integer vectors and unique
solutions of small integer systems.

:func:`solve_columns` takes integer rows (the kernel series clears each orbit
block to them) and brings them to reduced echelon form by one fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): each step sets
row_i <- (p row_i - h row_p) / d for every row other than the pivot row, with
p the new pivot, h the row's entry in the pivot column and d the previous
pivot.  The division is exact because every entry stays a minor of the
input: on a pivot row it is d times a reduced echelon entry, a determinant by
Cramer's rule; elsewhere a bordered minor (Sylvester's identity).  Every
pivot entry ends equal to the last pivot d, so the answer is integers over d.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def primitive_scale(values) -> Fraction:
    """The positive rational that makes the rationals values, not all zero,
    coprime integers."""
    den = lcm(*(v.denominator for v in values))
    return Fraction(den, gcd(*(v.numerator * (den // v.denominator) for v in values)))


class SingularSystem(ValueError):
    pass


class InconsistentSystem(ValueError):
    pass


def _reduced_echelon(M):
    """Reduce the integer rows M in place.  Returns (pivots, d).

    pivots holds (row, col) pairs in elimination order; every pivot entry
    ends equal to d, the last pivot (1 when there is none).
    """
    pivots, d = [], 1
    for col in range(len(M[0]) if M else 0):
        prow = len(pivots)
        sel = next((i for i in range(prow, len(M)) if M[i][col]), None)
        if sel is None:
            continue
        M[prow], M[sel] = M[sel], M[prow]
        row_p = M[prow]
        piv = row_p[col]
        # rows with a zero head entry are rescaled too: the exact divisibility
        # of later steps, and the common pivot d, depend on it
        for i, row in enumerate(M):
            if i != prow:
                head = row[col]
                M[i] = [(piv * a - head * b) // d for a, b in zip(row, row_p)]
        pivots.append((prow, col))
        d = piv
    return pivots, d


def solve_columns(A, B_cols) -> tuple[list[list[int]], int]:
    """Solve A x = b exactly for each column b; A may be overdetermined.

    A and the columns hold ints.  Returns (X, d): solution t is
    X[t][i] / d, int numerators over the common pivot d (nonzero, either
    sign).  Raises SingularSystem if the solution is not unique and
    InconsistentSystem if no solution exists.
    """
    ncols = len(A[0]) if A else 0
    M = [list(row) + [col[i] for col in B_cols] for i, row in enumerate(A)]
    pivots, d = _reduced_echelon(M)
    if any(pc >= ncols for _, pc in pivots):
        raise InconsistentSystem("no solution")
    if len(pivots) < ncols:
        raise SingularSystem("solution not unique")
    return [[M[i][ncols + t] for i in range(ncols)] for t in range(len(B_cols))], d
