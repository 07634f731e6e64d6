"""Gauss-type quadrature adapted to the damped radial measure.

The substitution u = lam r^a / a turns the radial factor into a generalized
Laguerre weight, so polynomials in r^a integrate exactly on a small rule.
Fractional powers of r are never evaluated blindly against a mismatched
weight: known exponents get folded into the rule, and integrands mixing
several residue classes mod a are split so each class meets a rule with the
right endpoint exponent.  Skipping that folding costs eight digits.
The Gauss rules come from one Golub-Welsch routine that follows
scipy.special's roots_genlaguerre and roots_jacobi with numpy's eigvalsh in
place of scipy.linalg's banded solver, so no rule imports scipy.linalg.

Every node is r_i xi_k, a radial node times a unit direction, with weight
W_i ws_k.  A term c r^s x^mono e_B is r_i^{s + |mono|} xi_k^mono there, so
its integral factors as c (sum_i W_i r_i^{s + |mono|}) (sum_k ws_k xi_k^mono)
and costs O(n_r + n_ang) per term.  :func:`term_tables` builds those radial
and angular tables for a whole expression; :func:`integrate_expr` contracts
them, and :func:`grid_values` joins them into values on the product grid for
integrands that do not factor (the kernels of :class:`KernelTables`).  The
factors of each rule are built once per (setup, a, lam, folded exponent, n_r,
n_ang) and cached for the life of the process (:func:`rule_cache_info`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import (beta, eval_gegenbauer, eval_genlaguerre, eval_jacobi,
                           eval_legendre, gamma)

from .measure import axis_multiplicities
from .poly import RadialExpr
from .reflection import ReflectionSetup


def _golub_welsch(n: int, mu0, diag, off, p, dp, symmetric=False):
    """Gauss nodes and weights of the orthogonal polynomials p(j, x) with
    recurrence coefficients diag(k), off(k), as scipy.special's roots_* build
    them (Jacobi-matrix eigenvalues, one Newton step, log-normalised weights
    scaled to the mass mu0), with numpy's eigvalsh for scipy.linalg's."""
    k = np.arange(n, dtype=float)
    x = np.linalg.eigvalsh(np.diag(diag(k)) + np.diag(off(k[1:]), -1))
    dy = dp(n, x)
    x -= p(n, x) / dy
    w = 1.0
    for v in (p(n - 1, x), dy):
        logs = np.log(np.abs(v))
        w = w * (v / np.exp((logs.max() + logs.min()) / 2.))
    w = 1.0 / w
    if symmetric:
        w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    return x, w * (mu0 / w.sum())


def _genlaguerre_rule(n: int, alpha: float):
    """Gauss rule for x^alpha e^{-x} on (0, inf), as scipy's roots_genlaguerre."""
    if n < 1:
        raise ValueError("n must be a positive integer.")
    mu0 = gamma(alpha + 1)
    if n == 1:
        return np.array([alpha + 1.0]), np.array([mu0])
    L = lambda j, x: eval_genlaguerre(j, alpha, x)
    return _golub_welsch(n, mu0, lambda k: 2 * k + alpha + 1,
                         lambda k: -np.sqrt(k * (k + alpha)), L,
                         lambda j, x: (j * L(j, x) - (j + alpha) * L(j - 1, x)) / x)


def _jacobi_rule(n: int, a: float, b: float):
    """Gauss rule for (1 - x)^a (1 + x)^b on [-1, 1], as scipy's roots_jacobi
    with its Chebyshev (a = b = -1/2), Legendre (a = b = 0) and Gegenbauer
    (a = b) cases."""
    if n < 1:
        raise ValueError("n must be a positive integer.")
    if a <= -1 or b <= -1:
        raise ValueError("alpha and beta must be greater than -1.")
    if a == b == -0.5:
        return np.sin(np.pi * np.arange(1 - n, n, 2) / (2 * n)), np.full(n, np.pi / n)
    if a == b:
        g = a + 0.5
        p = eval_legendre if a == 0 else lambda j, x: eval_gegenbauer(j, g, x)
        mu0 = 2.0 if a == 0 else np.sqrt(np.pi) * gamma(g + 0.5) / gamma(g + 1)
        off = ((lambda k: k * np.sqrt(1.0 / (4 * k * k - 1))) if a == 0 else
               lambda k: np.sqrt(k * (k + 2 * g - 1) / (4 * (k + g) * (k + g - 1))))
        return _golub_welsch(n, mu0, lambda k: 0.0 * k, off, p, lambda j, x: (
            -j * x * p(j, x) + (j + 2 * g - 1) * p(j - 1, x)) / (1 - x ** 2), True)
    s = lambda k: 2.0 * k + a + b
    # the diagonal's k = 0 entry and the off-diagonal's k = 1 factor apart,
    # as their general forms are 0 / 0 at a + b = 0 and a + b = -1
    diag = lambda k: np.r_[(b - a) / (2 + a + b), (b * b - a * a) / (s(k[1:]) * (s(k[1:]) + 2))]
    off = lambda k: (2.0 / s(k) * np.sqrt((k + a) * (k + b) / (s(k) + 1))
                     * np.r_[1.0, np.sqrt(k[1:] * (k[1:] + a + b) / (s(k[1:]) - 1))])
    return _golub_welsch(n, 2.0 ** (a + b + 1) * beta(a + 1, b + 1), diag, off,
                         lambda j, x: eval_jacobi(j, a, b, x),
                         lambda j, x: 0.5 * (j + a + b + 1) * eval_jacobi(j - 1, a + 1, b + 1, x))


def radial_rule(a, lam, exponent, n: int):
    """Nodes and weights with sum f(r_i) W_i ~ int_0^inf f(r) r^exponent e^{-lam r^a/a} dr.

    Exact (up to roundoff) whenever f is a polynomial in r^a of degree
    below 2n: the Golub-Welsch generalized Laguerre rule in u = lam r^a / a.
    Requires a > 0 and exponent > -1.
    """
    a, lam, exponent = float(a), float(lam), float(exponent)
    if a <= 0:
        raise ValueError("radial rule needs a > 0")
    alpha = (exponent + 1) / a - 1
    if alpha <= -1:
        raise ValueError(f"divergent at origin: exponent {exponent} <= -1")
    u, w = _genlaguerre_rule(n, alpha)
    r = (a * u / lam) ** (1 / a)
    W = (1 / a) * (a / lam) ** ((exponent + 1) / a) * w
    return r, W


def sphere_rule(m: int, n_ang: int):
    """Directions and weights for int_{S^{m-1}} f dsigma, m in {1, 2, 3}.

    m = 1 is the two-point set, m = 2 the trapezoid rule (exact through
    trigonometric degree n_ang - 1), m = 3 Gauss-Legendre in cos(theta)
    crossed with the trapezoid in phi.
    """
    if m == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n_ang < 1:
        raise ValueError("n_ang must be a positive integer.")
    if m == 2:
        th = 2 * np.pi * np.arange(n_ang) / n_ang
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(n_ang, 2 * np.pi / n_ang)
    if m == 3:
        t, wt = np.polynomial.legendre.leggauss(n_ang)
        ph = 2 * np.pi * np.arange(n_ang) / n_ang
        st = np.sqrt(1 - t**2)
        dirs = np.stack([
            np.outer(st, np.cos(ph)).ravel(),
            np.outer(st, np.sin(ph)).ravel(),
            np.repeat(t, n_ang),
        ], axis=1)
        return dirs, np.outer(wt, np.full(n_ang, 2 * np.pi / n_ang)).ravel()
    raise ValueError("sphere rule implemented for m <= 3")


def circle_rule(k1, k2, n: int):
    """Directions and weights for int_{S^1} f(xi) (2 xi_1^2)^{k1} (2 xi_2^2)^{k2} dsigma.

    Gauss-Jacobi (the Golub-Welsch rule) in t = xi_1^2 on one quadrant,
    mirrored over all four sign choices, so the weight's kinks on the axes
    never meet the rule.  Exact for f polynomial of degree below about 4n;
    odd parts vanish by symmetry.
    """
    u, w = _jacobi_rule(n, float(k2) - 0.5, float(k1) - 0.5)
    t = (1 + u) / 2
    x1, x2 = np.sqrt(t), np.sqrt(1 - t)
    signs = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]], dtype=float)
    dirs = signs[:, None, :] * np.stack([x1, x2], axis=1)[None, :, :]
    wts = np.broadcast_to(w / 2, (4, n))
    return dirs.reshape(-1, 2), wts.reshape(-1).copy()


@lru_cache(maxsize=None)
def _tensor_rule(setup: ReflectionSetup, a, lam, extra: Fraction, n_r: int,
                 n_ang: int):
    m = setup.m
    r, W = radial_rule(a, lam, 2 * setup.gamma + (m - 1) + extra, n_r)
    ks = axis_multiplicities(setup) if m == 2 else None
    if ks is not None and any(ks):
        dirs, ws = circle_rule(ks[0], ks[1], n_ang)
    elif m > 1 and any(k < 0 for k in setup.mults):
        raise ValueError("a negative multiplicity's weight is infinite on the "
                         "mirrors, which the plain sphere rule meets")
    else:
        dirs, ws = sphere_rule(m, n_ang)
        ws = ws * setup.weight_numeric(dirs)
    for arr in (r, W, dirs, ws):
        arr.setflags(write=False)
    return r, W, dirs, ws


def tensor_rule(setup: ReflectionSetup, a, lam, extra=0, n_r: int = 60,
                n_ang: int = 80):
    """Factors (r, W, dirs, ws) of the rule on the nodes r_i xi_k with

        sum_i sum_k f(r_i xi_k) W_i ws_k ~ int f(x) r^extra w_k(x) e^{-lam r^a/a} dx.

    The reflection weight sits in ws, the sphere measure r^{m-1} and the
    folded extra exponent in W.  On the circle with sign-flip weights the
    angular rule is the exact Jacobi one.  Each rule is built once per
    (setup, a, lam, extra, n_r, n_ang); its arrays are shared between callers
    and reject writes.
    """
    # one positional call shape, so equal rules share one cache entry
    return _tensor_rule(setup, a, lam, Fraction(extra), n_r, n_ang)


def rule_cache_info():
    """cache_info() of the rule cache behind :func:`tensor_rule`.

    Read here, not off a public cached function, so that a wrapper around
    tensor_rule (a profiler's, say) leaves the counters readable.
    """
    return _tensor_rule.cache_info()


class KernelTables:
    """The two most recently built kernel tables of the transforms, with hit
    and miss counts.  A table is the kernel E(x, -i y) at one rule's
    (rescaled) nodes against the (rescaled) targets: nodes x targets,
    complex, C-contiguous and read-only, keyed by the rule's key, the
    targets' bytes and the series order.  Two serve a tower whose rungs
    alternate between two rules.  On a miss the route's ``build`` makes the
    table: the plane wave's phases and the series, degree by degree, on the
    rule's factors (r, dirs), and the Bessel product at :func:`tensor_points`.
    """

    def __init__(self):
        self.tables: dict = {}
        self.hits = self.misses = 0

    def contract(self, key, build, vals: np.ndarray) -> np.ndarray:
        """sum_node table[node, target] vals[node, blade], targets x blades;
        on a miss the older of two held tables goes, then build() makes key's."""
        table = self.tables.get(key)
        if table is None:
            self.misses += 1
            if len(self.tables) == 2:
                del self.tables[next(iter(self.tables))]
            table = self.tables[key] = np.ascontiguousarray(build())
            table.setflags(write=False)
        else:
            self.hits += 1
        # the real vals meet the table's float view, never copied to complex
        return (vals.T @ table.view(float)).view(complex).T


def tensor_points(r: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The nodes r_i xi_k as rows, k running fastest."""
    return (r[:, None, None] * dirs[None, :, :]).reshape(-1, dirs.shape[1])


def power_table(pts: np.ndarray, monos) -> np.ndarray:
    """pts^mono for every row and monomial, shape (len(pts), len(monos)).

    One table of powers per variable; each monomial multiplies one row of
    each table into its own row of the transposed output, so no temporary
    grows with the number of monomials.
    """
    exps = np.array(monos, dtype=np.intp).reshape(len(monos), pts.shape[1])
    tables = [np.power.outer(pts[:, i], np.arange(col.max(initial=0) + 1)).T.copy()
              for i, col in enumerate(exps.T)]
    out = np.ones((len(exps), len(pts)))
    for row, mono in zip(out, exps):
        for table, e in zip(tables, mono):
            if e:
                row *= table[e]
    return out.T


def term_tables(expr: RadialExpr, r: np.ndarray, pts: np.ndarray,
                homogeneous: bool):
    """(R, A, C): radial powers, monomials and coefficients of expr's terms.

    R[i, t] = r_i^e_t, one power per distinct exponent e, A = pts^mono by
    :func:`power_table`, and C (terms x 2^m) holds each coefficient in its
    blade's column.  With pts the points and r their lengths, e = s and
    (R * A) @ C is expr at the points.  With pts unit directions and
    homogeneous, e = s + |mono| and R[i] A[k] C is expr at r_i pts_k.
    """
    terms = list(expr.rational_terms())
    exps = [s + sum(mono) if homogeneous else s for (s, mono, _b), _c in terms]
    col = {e: j for j, e in enumerate(dict.fromkeys(exps))}
    powers = np.empty((len(r), len(col)))
    for e, j in col.items():
        powers[:, j] = r ** float(e)
    R = powers[:, [col[e] for e in exps]]
    A = power_table(pts, [mono for (_s, mono, _b), _c in terms])
    C = np.zeros((len(terms), 1 << expr.m))
    for t, ((_s, _mono, blade), c) in enumerate(terms):
        C[t, blade] = float(c)
    return R, A, C


def grid_values(expr: RadialExpr, r: np.ndarray, W: np.ndarray,
                dirs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """W_i ws_k expr(r_i dirs_k) per blade, rows ordered as :func:`tensor_points`.

    Shape (len(r) len(dirs), 2^m); one matmul joins the radial and angular
    tables.
    """
    R, A, C = term_tables(expr, r, dirs, True)
    n_r, blades = len(r), C.shape[1]
    left = (W[:, None] * R)[:, None, :] * C.T[None, :, :]   # (n_r, 2^m, terms)
    vals = left.reshape(n_r * blades, -1) @ (ws[:, None] * A).T
    return vals.reshape(n_r, blades, -1).transpose(0, 2, 1).reshape(-1, blades)


def evaluate(expr: RadialExpr, pts: np.ndarray) -> np.ndarray:
    """Values of expr at each point, one column per blade: shape (N, 2^m)."""
    R, A, C = term_tables(expr, np.sqrt(np.sum(pts * pts, axis=1)), pts, False)
    return (R * A) @ C


def residue_classes(expr: RadialExpr, half, by_parity: bool = True) -> list:
    """Split expr into classes of its degree s + |mono| mod 2 half, rebased.

    Each class is rebased at its lowest degree, so what remains is a
    polynomial in r^(2 half) against a weight with the matched endpoint
    exponent; the damped measure (half = a/2) needs no more.  With by_parity,
    for rules whose oscillation lives in v = r^half, the classes also split
    by the parity of |mono|: against a phase in v summed over antipodal
    direction pairs, a term v^n xi^mono keeps the even (cos) or odd (sin)
    part of the phase by |mono|'s parity, and the paired sum is analytic in
    v^2 exactly when n + |mono| is even.  Odd classes are rebased one step of
    half further, which restores superalgebraic convergence.

    Returns (fold, part) pairs with expr = sum of r^fold * part.
    """
    half = Fraction(half)
    classes: dict = {}
    for (s, mono, blade), coeff in expr.rational_terms():
        n_v = (s + sum(mono)) / half
        key = (n_v - 2 * (n_v // 2), sum(mono) % 2 if by_parity else 0)
        classes.setdefault(key, []).append((n_v, (s, mono, blade), coeff))
    out = []
    for (_rho, parity), group in classes.items():
        fold = half * (min(nv for nv, _key, _c in group) + parity)
        part = RadialExpr(expr.m, {(s - fold, mono, blade): c
                                   for _nv, (s, mono, blade), c in group})
        out.append((fold, part))
    return out


def integrate_expr(setup: ReflectionSetup, expr: RadialExpr, a, lam, extra=0,
                   n_r: int = 60, n_ang: int = 80) -> tuple:
    """(int expr(x) r^extra w_k e^{-lam r^a/a} dx, its roundoff floor), each
    with one entry per blade.

    Each residue class mod a (:func:`residue_classes` at half = a/2, without
    the parity split) has its lowest degree folded into the rule's weight and
    integrates exactly, as I @ C over its term tables, with I = (W @ R) *
    (ws @ A) the rule's integral of each unit term.  Summing n terms c_t I_t
    in floats can be off by n eps sum_t |c_t I_t| in any order, which no
    tolerance below it can tell from a wrong value; that floor is |I| @ |C|
    summed over the classes, times n eps.
    """
    out = np.zeros(1 << expr.m)
    mag = np.zeros(1 << expr.m)
    for fold, part in residue_classes(expr, Fraction(a) / 2, by_parity=False):
        r, W, dirs, ws = tensor_rule(setup, a, lam, Fraction(extra) + fold, n_r, n_ang)
        R, A, C = term_tables(part, r, dirs, True)
        unit = (W @ R) * (ws @ A)
        out += unit @ C
        mag += np.abs(unit) @ np.abs(C)
    return out, len(expr.terms) * np.finfo(float).eps * mag
