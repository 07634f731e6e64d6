"""Exact linear algebra over Q, used for nullspaces and small solves.

Rows are cleared to integers, reduced by fraction-free (Bareiss) elimination
so intermediate entries stay integral, and the final back-substitution
produces exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SingularSystem(ValueError):
    pass


class InconsistentSystem(ValueError):
    pass


def _integer_rows(A):
    rows = []
    for row in A:
        den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        ints = [int(Fraction(x) * den) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        rows.append(ints)
    return rows


def _bareiss(M):
    """In-place fraction-free echelon form.  Returns (pivot list, rank).

    pivot list holds (row, col) pairs in elimination order.
    """
    if not M:
        return [], 0
    nrows, ncols = len(M), len(M[0])
    denom = 1
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        sel = None
        for i in range(prow, nrows):
            if M[i][col]:
                sel = i
                break
        if sel is None:
            continue
        M[prow], M[sel] = M[sel], M[prow]
        piv = M[prow][col]
        # every row below is rescaled, even with a zero head entry: the
        # exact divisibility of later steps depends on it
        for i in range(prow + 1, nrows):
            head = M[i][col]
            row_i, row_p = M[i], M[prow]
            for j in range(col, ncols):
                row_i[j] = (piv * row_i[j] - head * row_p[j]) // denom
        pivots.append((prow, col))
        denom = piv
        prow += 1
    return pivots, prow


def nullspace(A) -> list[list[Fraction]]:
    """Basis of the right kernel of A (rows = equations)."""
    if not A:
        return []
    ncols = len(A[0])
    M = _integer_rows(A)
    pivots, rank = _bareiss(M)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for (pr, pc) in reversed(pivots):
            row = M[pr]
            s = sum((Fraction(row[j]) * vec[j] for j in range(pc + 1, ncols)), Fraction(0))
            vec[pc] = -s / row[pc]
        den = lcm(*(v.denominator for v in vec))
        ints = [int(v * den) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        basis.append([Fraction(v) for v in ints])
    return basis


def solve_columns(A, B_cols) -> list[list[Fraction]]:
    """Solve A x = b exactly for each column b; A may be overdetermined.

    Raises SingularSystem if the solution is not unique and
    InconsistentSystem if no solution exists.
    """
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    k = len(B_cols)
    aug = [list(A[i]) + [col[i] for col in B_cols] for i in range(nrows)]
    M = _integer_rows(aug)
    pivots, rank = _bareiss(M)
    for pr, pc in pivots:
        if pc >= ncols:
            raise InconsistentSystem("no solution")
    if rank < ncols:
        raise SingularSystem("solution not unique")
    sols = []
    for t in range(k):
        vec = [Fraction(0)] * ncols
        for (pr, pc) in reversed(pivots):
            row = M[pr]
            s = sum((Fraction(row[j]) * vec[j] for j in range(pc + 1, ncols)), Fraction(0))
            vec[pc] = (Fraction(row[ncols + t]) - s) / row[pc]
        sols.append(vec)
    # overdetermined rows beyond the pivots must have been annihilated;
    # a nonzero residual there means the stacked system was inconsistent
    for i in range(rank, nrows):
        if any(M[i][ncols:]):
            raise InconsistentSystem("residual in dependent equations")
    return sols
