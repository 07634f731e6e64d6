"""Gauss-type quadrature adapted to the damped radial measure.

The substitution u = lam r^a / a turns the radial factor into a generalized
Laguerre weight, so polynomials in r^a integrate exactly on a small rule.
Fractional powers of r are never evaluated blindly against a mismatched
weight: known exponents get folded into the rule, and integrands mixing
several residue classes mod a are split so each class meets a rule with the
right endpoint exponent.  Skipping that folding costs eight digits.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

from .measure import axis_multiplicities
from .poly import RadialExpr
from .reflection import ReflectionSetup


def radial_rule(a, lam, exponent, n: int):
    """Nodes and weights with sum f(r_i) W_i ~ int_0^inf f(r) r^exponent e^{-lam r^a/a} dr.

    Exact (up to roundoff) whenever f is a polynomial in r^a of degree
    below 2n.  Requires a > 0 and exponent > -1.
    """
    a, lam, exponent = float(a), float(lam), float(exponent)
    if a <= 0:
        raise ValueError("radial rule needs a > 0")
    alpha = (exponent + 1) / a - 1
    if alpha <= -1:
        raise ValueError(f"divergent at origin: exponent {exponent} <= -1")
    u, w = roots_genlaguerre(n, alpha)
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

    Gauss-Jacobi in t = xi_1^2 on one quadrant, mirrored over all four sign
    choices, so the weight's kinks on the axes never meet the rule.  Exact
    for f polynomial of degree below about 4n; odd parts vanish by symmetry.
    """
    u, w = roots_jacobi(n, float(k2) - 0.5, float(k1) - 0.5)
    t = (1 + u) / 2
    x1, x2 = np.sqrt(t), np.sqrt(1 - t)
    signs = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1]], dtype=float)
    dirs = signs[:, None, :] * np.stack([x1, x2], axis=1)[None, :, :]
    wts = np.broadcast_to(w / 2, (4, n))
    return dirs.reshape(-1, 2), wts.reshape(-1).copy()


def weighted_grid(setup: ReflectionSetup, a, lam, extra=0, n_r: int = 60,
                  n_ang: int = 80):
    """Points and weights with sum f(p_i) w_i ~ int f(x) r^extra w_k(x) e^{-lam r^a/a} dx.

    The reflection weight, the sphere measure r^{m-1}, and the folded extra
    exponent all live in the weights; f is evaluated bare.  On the circle
    with sign-flip weights the angular rule is the exact Jacobi one.
    """
    m = setup.m
    exponent = 2 * setup.gamma + (m - 1) + Fraction(extra)
    r, W = radial_rule(a, lam, exponent, n_r)
    ks = axis_multiplicities(setup) if m == 2 else None
    if ks is not None and any(ks):
        dirs, ws = circle_rule(ks[0], ks[1], n_ang)
    else:
        dirs, ws = sphere_rule(m, n_ang)
        ws = ws * setup.weight_numeric(dirs)
    pts = r[:, None, None] * dirs[None, :, :]
    wts = W[:, None] * ws[None, :]
    return pts.reshape(-1, m), wts.ravel()


def evaluate(expr: RadialExpr, pts: np.ndarray) -> np.ndarray:
    """Values of expr at each point, one column per blade: shape (N, 2^m)."""
    N = pts.shape[0]
    out = np.zeros((N, 1 << expr.m))
    r = np.sqrt(np.sum(pts * pts, axis=1))
    for (s, mono, blade), coeff in expr.terms.items():
        vals = np.full(N, float(coeff))
        if s:
            vals = vals * r ** float(s)
        for i, e in enumerate(mono):
            if e:
                vals = vals * pts[:, i] ** e
        out[:, blade] += vals
    return out


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
    for (s, mono, blade), coeff in expr.terms.items():
        n_v = (Fraction(s) + sum(mono)) / half
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
                   n_r: int = 60, n_ang: int = 80) -> np.ndarray:
    """int expr(x) r^extra w_k e^{-lam r^a/a} dx, one entry per blade.

    Each residue class mod a (:func:`residue_classes` at half = a/2, without
    the parity split) has its lowest degree folded into the rule's weight and
    integrates exactly.
    """
    out = np.zeros(1 << expr.m)
    for fold, part in residue_classes(expr, Fraction(a) / 2, by_parity=False):
        pts, wts = weighted_grid(setup, a, lam, Fraction(extra) + fold, n_r, n_ang)
        out += wts @ evaluate(part, pts)
    return out
