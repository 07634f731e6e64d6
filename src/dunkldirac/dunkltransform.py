"""Dunkl transform with a nontrivial reflection weight.

    F f(y) = c_k^{-1} int f(x) E(x, -i y) w_k(x) dx,
    E(x, -i y) = sum_n (-i)^n K_n(x, y).

:func:`kernel_matrix` is the one route to E.  When every root is a
coordinate vector (z2^m, dihedral(1), dihedral(2)) the kernel is Rösler's
closed product of rank-one kernels (Dunkl operators: theory and
applications, LNM 1817),

    E(x, -i y) = prod_j [j_{k_j - 1/2}(z_j) - i z_j/(2 k_j + 1) j_{k_j + 1/2}(z_j)],

with z_j = x_j y_j and the normalized Bessel function
j_nu(z) = 0F1(; nu + 1; -z^2/4).  Every other group sums the bihomogeneous
components K_n built by :meth:`DunklContext.kernel_series`, which converge
like an exponential's Taylor series, so truncating near order thirty is
accurate to square-summable noise against Gaussian-damped inputs on moderate
balls.  The transforms read E from a
:class:`dunkldirac.quadrature.KernelTables` memo, which calls
:func:`kernel_matrix` once per (rule, targets, order) it holds.  The natural
eigenfunctions are

    L_j^{mu/2 + ell - 1}(r^2) H_ell(x) e^{-r^2/2},

H_ell harmonic for the Dunkl Laplacian, with eigenvalue (-i)^{2j + ell}.

The same machinery reaches two relatives: the a = -2 realization, whose
transform is the conjugate of this one by the inversion x -> x/r^2, and the
deformed transform on the commuting line c = 2/a - 1, which the radial
reparametrizations P and Q reduce to the a = 2 case.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.special import hyp0f1

from .deformed import DeformedContext
from .dunkl import DunklContext
from .kelvin import inversion, p_map, q_coordinate_map
from .laguerre import laguerre_poly
from .measure import axis_multiplicities, mehta_constant
from .poly import RadialExpr
from .quadrature import (KernelTables, evaluate, grid_values, power_table,
                         residue_classes, tensor_points, tensor_rule)
from .reflection import ReflectionSetup
from .scalars import ExactScalar


def kernel_route(setup: ReflectionSetup) -> str:
    """Which route :func:`kernel_matrix` takes: "bessel" or "series"."""
    return "series" if axis_multiplicities(setup) is None else "bessel"


def _series_kernel(dk: DunklContext, X: np.ndarray, Y: np.ndarray,
                   order: int) -> np.ndarray:
    """E(x, -i y) summed through `order` from the coefficients cached on dk."""
    xmonos, C, ymonos = dk.kernel_coefficients(order)
    right = np.ascontiguousarray(C @ power_table(Y, ymonos).T)
    # the real matrix of x-monomials meets the complex right factor as its
    # interleaved float view, so it is never copied to complex
    return (power_table(X, xmonos) @ right.view(float)).view(complex)


def _bessel_kernel(ks: list, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """E(x, -i y) as the product over coordinates of rank-one Bessel kernels."""
    out = np.ones((len(X), len(Y)), dtype=complex)
    for j, k in enumerate(ks):
        k = float(k)
        z = np.multiply.outer(X[:, j], Y[:, j])
        w = -0.25 * z * z
        out *= hyp0f1(k + 0.5, w) - 1j * z / (2 * k + 1) * hyp0f1(k + 1.5, w)
    return out


def kernel_matrix(dk: DunklContext, X: np.ndarray, Y: np.ndarray,
                  order: int) -> np.ndarray:
    """E(x, -i y) for every row pair, as a complex (len(X), len(Y)) array.

    Sign-flip groups take the closed Bessel product and ignore `order`;
    0F1 is even in z and 1 at z = 0, so points on an axis need no special
    case.  Every other group sums the series through `order`.
    """
    if kernel_route(dk.setup) == "series":
        return _series_kernel(dk, X, Y, order)
    return _bessel_kernel(axis_multiplicities(dk.setup), X, Y)


def normalization(setup: ReflectionSetup) -> float:
    """c_k = int e^{-|x|^2/2} w_k dx, closed; ValueError where it diverges."""
    return float(mehta_constant(setup))


def _grid_transform(dk: DunklContext, f: RadialExpr, targets: np.ndarray,
                    order: int, n_r: int, n_ang: int, tables: KernelTables,
                    inverted: bool = False) -> np.ndarray:
    """c_k^{-1} sum over the Gaussian tensor grid of f E(node, -i target)
    w_k, with f read at the nodes or (inverted) at xi_k / r_i; see
    :func:`transform_values` and :func:`transform_inverted_direct`."""
    tables = KernelTables() if tables is None else tables
    out = np.zeros((len(targets), 1 << dk.setup.m), dtype=complex)
    for fold, part in residue_classes(f, -1 if inverted else 1):
        extra = 2 - dk.setup.mu - fold if inverted else fold
        r, W, dirs, ws = tensor_rule(dk.setup, 2, 1, extra, n_r, n_ang)
        key = (dk.setup, 2, 1, extra, n_r, n_ang, targets.tobytes(), "kernel", order)
        out += tables.contract(
            key, lambda: kernel_matrix(dk, tensor_points(r, dirs), targets, order),
            grid_values(part, 1 / r if inverted else r, W, dirs, ws))
    return out / normalization(dk.setup)


def transform_values(dk: DunklContext, f: RadialExpr, targets: np.ndarray,
                     order: int = 28, n_r: int = 60, n_ang: int = 64,
                     tables: KernelTables = None) -> np.ndarray:
    """Transform of f e^{-r^2/2} at the target points, one column per blade.

    Each residue class of f is weighted on its cached tensor rule and meets
    the kernel table of that rule and the targets in one real matmul; calls
    that pass one ``tables`` share its tables (a fresh memo by default).
    """
    return _grid_transform(dk, f, np.asarray(targets, dtype=float), order, n_r,
                           n_ang, tables)


def eigenfunction(dk: DunklContext, j: int, ell: int,
                  harmonic: RadialExpr) -> RadialExpr:
    """L_j^{mu/2 + ell - 1}(r^2) times a degree-ell harmonic.

    Against the implicit e^{-r^2/2} this transforms into itself times
    (-i)^{2j + ell}; see :func:`eigenvalue`.
    """
    alpha = Fraction(dk.setup.mu, 2) + ell - 1
    out = RadialExpr(dk.setup.m)
    for p, c in enumerate(laguerre_poly(j, alpha)):
        if c:
            out = out + harmonic.scale(c).mul_radial(2 * p)
    return out


def eigenvalue(j: int, ell: int) -> complex:
    return (-1j) ** ((2 * j + ell) % 4)


def transform_inverted(dk: DunklContext, g: RadialExpr, targets: np.ndarray,
                       order: int = 28, n_r: int = 60, n_ang: int = 64,
                       tables: KernelTables = None) -> np.ndarray:
    """a = -2 transform of g e^{-1/(2 r^2)} by conjugating with the inversion.

    The inversion J f(x) = r^{2 - mu} f(x / r^2) swaps the a = 2 and a = -2
    realizations, so the a = -2 transform is J o F o J:

        F_{-2} G (y) = r_y^{2 - mu} (F (J g) e^{-r^2/2})(y / r_y^2),

    where J carries the near-origin damping e^{-1/(2 r^2)} to the Gaussian.
    """
    mu = float(dk.setup.mu)
    r2 = np.sum(np.asarray(targets, dtype=float) ** 2, axis=1)
    inv_targets = targets / r2[:, None]
    vals = transform_values(dk, inversion(dk, g), inv_targets, order, n_r, n_ang, tables)
    return vals * (r2 ** ((2 - mu) / 2))[:, None]


def transform_inverted_direct(dk: DunklContext, g: RadialExpr, targets: np.ndarray,
                              order: int = 28, n_r: int = 60, n_ang: int = 64,
                              tables: KernelTables = None) -> np.ndarray:
    """The same a = -2 transform, integrating where g lives.

        F_{-2} G (y) = c_k^{-1} r_y^{2 - mu}
                       int g(v) E(v/r_v^2, -i y/r_y^2) r_v^{-mu - 2}
                           w_k(v) e^{-1/(2 r_v^2)} dv.

    Substituting v = x / r_x^2 turns the radial rule back into the Gaussian
    one, so the nodes are the standard grid's images under the inversion and
    g is evaluated there pointwise, never rewritten algebraically.  Agreement
    with :func:`transform_inverted` checks the two routes against each other.
    """
    targets = np.asarray(targets, dtype=float)
    r2t = np.sum(targets * targets, axis=1)
    # After the substitution a term r^s x^mono of g grows like r_x^{-(s+|mono|)}
    # on the Gaussian grid, so g is split with half = -1; each class's
    # r_v^fold = r_x^{-fold} goes into the rule and its rebased part is
    # evaluated at the inverted nodes xi_k / r_i, a tensor grid too.
    out = _grid_transform(dk, g, targets / r2t[:, None], order, n_r, n_ang, tables,
                          inverted=True)
    return out * (r2t ** ((2 - float(dk.setup.mu)) / 2))[:, None]


def inverted_damped_values(dk: DunklContext, g: RadialExpr,
                           targets: np.ndarray) -> np.ndarray:
    """g e^{-1/(2 r^2)} at the targets, the a = -2 counterpart of a damped tower."""
    targets = np.asarray(targets, dtype=float)
    r2 = np.sum(targets * targets, axis=1)
    return evaluate(g, targets) * np.exp(-0.5 / r2)[:, None]


def deformed_transform(dctx: DeformedContext, psi: RadialExpr, targets: np.ndarray,
                       order: int = 28, n_r: int = 60, n_ang: int = 64,
                       tables: KernelTables = None) -> np.ndarray:
    """Deformed transform of psi e^{-r^a/a} with any sign-flip weight.

    Only on the commuting line c = 2/a - 1, where the reparametrization P
    carries psi e^{-r^a/a} to (P psi) e^{-r^2/2} and its inverse Q carries
    the transform back:

        F_D = (a/2)^{b/2} Q_y F P_x,

    with (Q h)(y) = r_y^{-ab/2} h((2/a)^{1/2} y r_y^{a/2 - 1}).  For the
    trivial weight this must match the closed-kernel route in
    :func:`dunkldirac.fourier.fourier_apply`.
    """
    par = dctx.par
    if not par.is_commuting_choice():
        raise ValueError("reduction to the a = 2 transform needs c = 2/a - 1")
    a, b = float(par.a), float(par.b)
    targets = np.asarray(targets, dtype=float)
    fz = p_map(par, psi)
    vals = transform_values(dctx.dk, fz, q_coordinate_map(par, targets),
                            order, n_r, n_ang, tables)
    pre = float(ExactScalar.power(par.a / 2, par.b / 2))
    r_tgt = np.sqrt(np.sum(targets * targets, axis=1))
    return vals * pre * (r_tgt ** (-a * b / 2))[:, None]
