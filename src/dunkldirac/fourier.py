"""The closed scalar kernel of the deformed transform, and its spectral data.

On the commuting line c = 2/a - 1 with trivial reflection weight the
transform has a closed scalar kernel,

    K(x, y) = d (r_x r_y)^{-ab/2} exp(-(2i/a) <x, y> (r_x r_y)^{a/2 - 1}),
    d = (2 pi)^{-m/2} (2/a)^{m/2 - 1},

and the damped towers are eigenfunctions with eigenvalue (-i)^t e^{-i pi
ell / (a (1 + c))}.  This module evaluates that kernel and its defining
first-order system pointwise, the oracle of the ``kernel-residual`` suite,
and holds the eigen-reference: the predicted eigenvalues, the damped values
and the least-squares eigenvalue of a computed transform.

The transform itself, for every reflection weight, is
:func:`dunkldirac.dunkltransform.deformed_transform`; at k = 0 it reads this
kernel as a plane wave at the rule's nodes.
"""

from __future__ import annotations

import numpy as np

from .deformed import DeformedContext
from .params import DeformParams
from .poly import RadialExpr
from .quadrature import evaluate


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