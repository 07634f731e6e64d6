"""The integral transform attached to the deformed operator, c = 2/a - 1.

On the commuting line with trivial reflection weight the transform has a
closed scalar kernel,

    K(x, y) = d (r_x r_y)^{-ab/2} exp(-(2i/a) <x, y> (r_x r_y)^{a/2 - 1}),
    d = (2 pi)^{-m/2} (2/a)^{m/2 - 1},

and the damped towers are eigenfunctions with eigenvalue (-i)^t e^{-i pi
ell / (a (1 + c))}.  Everything here evaluates the kernel and the transform
numerically; the kernel's singular radial powers are folded into the
quadrature weight rather than sampled, which is worth eight digits.

With a nontrivial reflection weight the kernel is closed for sign-flip
groups (z2^m, dihedral(1), dihedral(2)) as Rösler's product of normalized
Bessel functions, and a series otherwise; :mod:`dunkldirac.dunkltransform`
takes both routes.
"""

from __future__ import annotations

import numpy as np

from .deformed import DeformedContext
from .measure import weight_exponent
from .params import DeformParams
from .poly import RadialExpr
from .quadrature import (KernelTables, evaluate, grid_values, residue_classes,
                         tensor_rule)


def _require_kernel(par: DeformParams):
    if not par.is_commuting_choice():
        raise ValueError("closed kernel needs c = 2/a - 1")


def kernel_constant(par: DeformParams, m: int) -> float:
    """Normalization d making the reproducing identities come out clean."""
    _require_kernel(par)
    a = float(par.a)
    return (2 * np.pi) ** (-m / 2) * (2 / a) ** (m / 2 - 1)


def kernel_values(par: DeformParams, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """K(x_i, y_i) for paired rows of X and Y."""
    _require_kernel(par)
    a, b = float(par.a), float(par.b)
    rx = np.sqrt(np.sum(X * X, axis=-1))
    ry = np.sqrt(np.sum(Y * Y, axis=-1))
    u = -2j / a * np.sum(X * Y, axis=-1) * (rx * ry) ** (a / 2 - 1)
    return kernel_constant(par, X.shape[-1]) * (rx * ry) ** (-a * b / 2) * np.exp(u)


def pde_residual(par: DeformParams, X: np.ndarray, Y: np.ndarray) -> float:
    """Worst residual of the kernel's defining equations at paired points.

    Component j of the deformed operator acting in x (scalar part, k = 0),

        r^{1 - a/2} d_j K + b r^{-1 - a/2} x_j K + (2/a - 1) r^{-a/2} x_j dr K,

    must equal -(2i/a) y_j r_y^{a/2 - 1} K.  Derivatives are closed forms,
    so the residual is pure floating-point noise when the kernel is right.
    """
    _require_kernel(par)
    a, b = float(par.a), float(par.b)
    rx = np.sqrt(np.sum(X * X, axis=-1, keepdims=True))
    ry = np.sqrt(np.sum(Y * Y, axis=-1, keepdims=True))
    K = kernel_values(par, X, Y)[..., None]
    dot = np.sum(X * Y, axis=-1, keepdims=True)
    u = -2j / a * dot * (rx * ry) ** (a / 2 - 1)
    du = -2j / a * (rx * ry) ** (a / 2 - 1) * (Y + (a / 2 - 1) * X * dot / rx**2)
    dK = K * (-a * b / 2 * X / rx**2 + du)
    drK = K * (-a * b / 2 + a / 2 * u) / rx
    lhs = (rx ** (1 - a / 2) * dK + b * rx ** (-1 - a / 2) * X * K
           + (2 / a - 1) * rx ** (-a / 2) * X * drK)
    rhs = -2j / a * Y * ry ** (a / 2 - 1) * K
    scale = np.abs(rhs).max()
    return float(np.abs(lhs - rhs).max() / (scale if scale else 1.0))


def spectral_eigenvalue(par: DeformParams, ell: int, t: int) -> complex:
    """(-i)^t e^{-i pi ell / (a (1 + c))}; reduces to (-i)^{t + ell} here."""
    _require_kernel(par)
    return (-1j) ** t * np.exp(-1j * np.pi * ell / float(par.a * (1 + par.c)))


def _phase_table(r, dirs, a: float, scaled: np.ndarray) -> np.ndarray:
    """The (nodes x targets) phases of the rule (r, dirs) at the scaled targets."""
    theta = np.multiply.outer(-2 / a * r ** (a / 2), dirs @ scaled.T)
    # cos and sin of the real angle cost half a complex exp
    phases = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phases.real)
    np.sin(theta, out=phases.imag)
    return phases.reshape(-1, len(scaled))


def fourier_apply(dctx: DeformedContext, psi: RadialExpr, targets: np.ndarray,
                  n_r: int = 100, n_ang: int = 120,
                  tables: KernelTables = None) -> np.ndarray:
    """Transform of psi e^{-r^a/a} evaluated at target points, per blade.

    Returns a complex array of shape (len(targets), 2^m).  The kernel's
    r_x power and psi's lowest radial exponent are folded into the rule;
    the target-side power multiplies at the end.

    Each residue class of psi meets the cached tensor rule of its folded
    exponent (:func:`dunkldirac.quadrature.tensor_rule`, keyed by setup, a,
    lam = 1, that exponent, n_r and n_ang).  At the node r_i xi_k the
    weighted values of the class come from its radial and angular tables,
    and the phase is exp(-(2i/a) r_i^{a/2} <xi_k, y> r_y^{a/2 - 1}), so one
    real matmul contracts the grid against the rule's phase table.  Calls
    that pass one ``tables`` share its tables (a fresh memo by default).
    """
    par = dctx.par
    _require_kernel(par)
    setup = dctx.dk.setup
    if setup.gamma:
        raise ValueError("closed kernel needs trivial reflection weight")
    a, b = float(par.a), float(par.b)
    eh = weight_exponent(dctx)
    r_tgt = np.sqrt(np.sum(targets * targets, axis=1))
    scaled = targets * (r_tgt ** (a / 2 - 1))[:, None]
    out = np.zeros((len(targets), 1 << setup.m), dtype=complex)
    tables = KernelTables() if tables is None else tables
    for fold, part in residue_classes(psi, par.a / 2):
        extra = eh - par.a * par.b / 2 + fold
        r, W, dirs, ws = tensor_rule(setup, par.a, 1, extra, n_r, n_ang)
        key = (setup, par.a, 1, extra, n_r, n_ang, scaled.tobytes(), "phase", par.a)
        out += tables.contract(key, lambda: _phase_table(r, dirs, a, scaled),
                               grid_values(part, r, W, dirs, ws))
    return out * (kernel_constant(par, setup.m) * r_tgt ** (-a * b / 2))[:, None]


def damped_values(dctx: DeformedContext, psi: RadialExpr, targets: np.ndarray,
                  lam: float = 1.0) -> np.ndarray:
    """psi e^{-lam r^a/a} at the targets, per blade; the eigen-reference."""
    r = np.sqrt(np.sum(targets * targets, axis=1))
    damp = np.exp(-lam * r ** float(dctx.par.a) / float(dctx.par.a))
    return evaluate(psi, targets) * damp[:, None]


def measured_eigenvalue(reference: np.ndarray, transformed: np.ndarray):
    """Least-squares eigenvalue and relative residual of transformed vs reference."""
    ref = np.asarray(reference, dtype=complex).ravel()
    out = np.asarray(transformed, dtype=complex).ravel()
    lam = np.vdot(ref, out) / np.vdot(ref, ref)
    resid = np.abs(out - lam * ref).max() / np.abs(ref).max()
    return complex(lam), float(resid)