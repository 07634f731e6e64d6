"""Fraction-free linear solving: reduced echelon form and unique solutions."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from dunkldirac.linalg import (
    InconsistentSystem,
    SingularSystem,
    _reduced_echelon,
    primitive_scale,
    solve_columns,
)


def matvec(A, x):
    return [sum((Fraction(A[i][j]) * x[j] for j in range(len(x))), Fraction(0))
            for i in range(len(A))]


def solve(A, cols):
    """solve_columns' int numerators over its pivot d, as Fractions."""
    X, d = solve_columns(A, cols)
    return [[Fraction(v, d) for v in x] for x in X]


def cleared(A, b):
    """The integer rows of A x = b: each equation times its lcm denominator."""
    rows = []
    for row, bi in zip(A, b):
        den = math.lcm(*(Fraction(v).denominator for v in [*row, bi]))
        rows.append([int(Fraction(v) * den) for v in [*row, bi]])
    return [r[:-1] for r in rows], [r[-1] for r in rows]


def test_solve_known_system():
    A = [[2, 1], [1, 3]]
    x = solve(A, [[5, 10]])[0]
    assert x == [Fraction(1), Fraction(3)]


def test_solve_returns_int_numerators_over_one_pivot():
    X, d = solve_columns([[2, 1], [1, 3]], [[5, 10], [1, 0]])
    assert isinstance(d, int) and d != 0
    assert all(isinstance(v, int) for x in X for v in x)
    assert [[Fraction(v, d) for v in x] for x in X] == [
        [Fraction(1), Fraction(3)], [Fraction(3, 5), Fraction(-1, 5)]]


def test_solve_with_fraction_entries():
    """Fraction entries are cleared row by row before the integer solve."""
    A = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]
    b = [Fraction(7, 6), Fraction(6, 5)]
    rows, rhs = cleared(A, b)
    assert matvec(A, solve(rows, [rhs])[0]) == b


def test_solve_overdetermined_consistent():
    # three equations, two unknowns, rank 2, consistent
    A = [[1, 1], [1, -1], [2, 0]]
    b = [3, 1, 4]
    assert solve(A, [b])[0] == [Fraction(2), Fraction(1)]


def test_solve_overdetermined_inconsistent_raises():
    A = [[1, 1], [1, -1], [2, 0]]
    with pytest.raises(InconsistentSystem):
        solve_columns(A, [[3, 1, 5]])


def test_solve_singular_raises():
    with pytest.raises(SingularSystem):
        solve_columns([[1, 2], [2, 4]], [[1, 2]])


def test_inconsistent_square_system_raises():
    with pytest.raises(InconsistentSystem):
        solve_columns([[1, 2], [2, 4]], [[1, 3]])


def test_solve_columns_batches():
    A = [[1, 2], [3, 4]]
    cols = [[1, 0], [0, 1], [5, 6]]
    sols = solve(A, cols)
    for x, b in zip(sols, cols):
        assert matvec(A, x) == [Fraction(v) for v in b]


entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@given(st.lists(entries, min_size=1, max_size=5).filter(any))
def test_primitive_scale_clears_to_coprime_integers(values):
    scale = primitive_scale(values)
    ints = [v * scale for v in values]
    assert scale > 0 and all(v.denominator == 1 for v in ints)
    assert math.gcd(*(int(v) for v in ints)) == 1


def det(A):
    """Exact determinant by the Leibniz sum over permutations."""
    n, out = len(A), Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= A[i][j]
        out += term
    return out


@given(data=st.data())
def test_random_square_systems_roundtrip(data):
    """Either the solution reproduces b, or the matrix really is singular."""
    n = data.draw(st.integers(1, 4))
    A = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    x_true = [data.draw(entries) for _ in range(n)]
    b = matvec(A, x_true)
    rows, rhs = cleared(A, b)
    try:
        x = solve(rows, [rhs])[0]
    except SingularSystem:
        assert det(A) == 0, "singular verdict on an invertible matrix"
        return
    assert matvec(A, x) == b


def rank(A):
    """Rank by plain Gaussian elimination over Q."""
    M, r = [list(row) for row in A], 0
    for c in range(len(M[0])):
        p = next((i for i in range(r, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        for i in range(r + 1, len(M)):
            f = M[i][c] / M[r][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


def test_rank_nullity_on_random_matrices():
    """The echelon form's pivot columns are exactly the columns outside the
    span of the ones before them, so rank plus nullity is the column count."""
    rng = random.Random(2026)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)]
             for _ in range(rows)]
        free = [j for j in range(cols)
                if rank([row[:j + 1] for row in A]) == rank([row[:j] for row in A])]
        M = [[int(v) for v in row] for row in A]
        pivots, d = _reduced_echelon(M)
        pivot_cols = [c for _, c in pivots]
        assert len(pivots) == rank(A)
        assert sorted(pivot_cols + free) == list(range(cols))
        assert all(M[pr][pc] == d for pr, pc in pivots)
