"""The three workloads: seeded lists of dunkldirac CLI suite invocations.

Each invocation carries the number of report rows its definition implies,
derived here from the suite's structure rather than read from the program,
and the parameters the independent checks need.

Why these three:

* osp-exact runs only the exact layer (poly, dunkl, deformed, reflection,
  clifford, Fraction arithmetic); symmetric(3) makes reflections
  off-axis.  A canonical-form change to RadialExpr should move it.
* transform-series spends nearly all its time in the series kernel
  (dunkltransform.kernel_matrix); B2 is the one off-axis kernel series.  A
  closed product kernel should move it and nothing else.
* towers-closed uses the same exact layer through products, long raising
  chains, Gamma-exact norms and ExactScalar powers, and the closed k = 0
  kernel with residue-class quadrature; it never calls kernel_matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb


@dataclass
class Invocation:
    suite: str
    argv: list
    rows: int
    params: dict = field(default_factory=dict)


def n_inputs(m: int, degree: int) -> int:
    """Monomial-times-blade inputs of degree <= degree in m variables."""
    return sum(comb(d + m - 1, m - 1) for d in range(degree + 1)) << m


def seeded_triple(rng: random.Random) -> tuple:
    """(a, b, c) with fixed denominators 3, 5, 7 and nonzero numerators.

    Fixed denominators keep the size of the rational arithmetic, and so the
    cost of a round, nearly the same from seed to seed; a stays in (0, 4)
    and c never reaches -1.
    """
    a = Fraction(rng.choice([1, 2, 4, 5, 7, 8, 10, 11]), 3)
    b = Fraction(rng.choice([1, 2, 3, 4, 6, 7, 8, 9]) * rng.choice([1, -1]), 5)
    c = Fraction(rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6,
                             8, 9, 10, 11, 12, 13]), 7)
    return a, b, c


def _abc(a, b, c) -> list:
    return [f"--a={a}", f"--b={b}", f"--c={c}"]


def osp_exact(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for family in ("z2", "symmetric"):
        a, b, c = seeded_triple(rng)
        out.append(Invocation(
            "verify-osp",
            ["verify-osp", "--family", family, "--m", "3", "--k", "1/2",
             "--degree", "3", *_abc(a, b, c)],
            rows=8 * n_inputs(3, 3),
            params={"family": family, "m": 3, "k": Fraction(1, 2),
                    "a": a, "b": b, "c": c}))
    return out


TRANSFORM_TOL = 1e-8


def transform_series(seed: int) -> list:
    grid = ["--nr", "60", "--ntheta", "64", "--tol", str(TRANSFORM_TOL),
            "--seed", str(seed)]
    return [
        Invocation(
            "transform-eigen",
            ["transform-eigen", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
             "--t-max", "2", "--l-max", "1", *grid],
            rows=3 * 2,
            params={"a": Fraction(2)}),
        Invocation(
            "transform-eigen",
            ["transform-eigen", "--family", "hyperoctahedral", "--m", "2",
             "--k", "1,2", "--t-max", "1", "--l-max", "1", *grid],
            rows=2 * 2,
            params={"a": Fraction(2)}),
        Invocation(
            "a-minus2-suite",
            ["a-minus2-suite", "--family", "z2", "--m", "2", "--k", "1/2",
             "--j-max", "0", "--l-max", "1", *grid],
            rows=2 * n_inputs(2, 3) + 1 * 2),
    ]


# the orthogonality and Laguerre runs share one off-line triple
TOWER_A, TOWER_B, TOWER_C = Fraction(4, 3), Fraction(1, 3), Fraction(1, 2)


def towers_closed(seed: int) -> list:
    rng = random.Random(seed)
    a, b, c = seeded_triple(rng)
    t_max, ell_max = 4, 2
    pairs = (t_max + 1) * (ell_max + 1)
    abc = _abc(TOWER_A, TOWER_B, TOWER_C)
    return [
        Invocation(
            "orthogonality",
            ["orthogonality", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
             *abc, "--t-max", str(t_max), "--ell-max", str(ell_max), "--numeric"],
            rows=pairs * (pairs + 1) // 2,
            params={"m": 2, "ks": [Fraction(1, 2), Fraction(3, 2)],
                    "a": TOWER_A, "c": TOWER_C, "t_max": t_max, "ell_max": ell_max}),
        Invocation(
            "transform-eigen",
            ["transform-eigen", "--family", "z2", "--m", "3", "--k", "0",
             "--a", "2/3", "--t-max", "3", "--l-max", "2", "--nr", "60",
             "--ntheta", "32", "--tol", str(TRANSFORM_TOL), "--seed", str(seed)],
            rows=4 * 3,
            params={"a": Fraction(2, 3)}),
        Invocation(
            "laguerre-table",
            ["laguerre-table", "--family", "z2", "--m", "3", "--k", "1/2",
             *abc, "--t-max", "10", "--ell-max", "2"],
            rows=11 * 3,
            params={"m": 3, "ks": [Fraction(1, 2)] * 3, "a": TOWER_A, "c": TOWER_C}),
        Invocation(
            "verify-kelvin",
            ["verify-kelvin", "--family", "z2", "--m", "3", "--k", "1/2",
             *_abc(a, b, c)],
            rows=4 * n_inputs(3, 3)),
    ]


WORKLOADS = {
    "osp-exact": osp_exact,
    "transform-series": transform_series,
    "towers-closed": towers_closed,
}
