"""Exact operator calculus for a deformed Dunkl Dirac family.

The objects most sessions start from:

    setup = z2_power(2, (Fraction(1, 2), Fraction(1, 2)))
    dctx = DeformedContext(DunklContext(setup), DeformParams.commuting(4, 0))

Everything downstream (towers, inner products, transforms) hangs off those
two contexts; the numerical layer lives in :mod:`dunkldirac.quadrature`,
:mod:`dunkldirac.fourier` and :mod:`dunkldirac.dunkltransform`.  Values in
the Clifford algebra Cl(0, m) are constant :class:`RadialExpr` terms, one
per blade bitmask; :mod:`dunkldirac.clifford` holds only the blade
arithmetic.
"""

from .deformed import (DeformedContext, factorization_solutions_generic,
                       factorization_solutions_zero_k)
from .dunkl import DunklContext
from .dunkltransform import deformed_transform, transform_values
from .fischer import harmonic_basis, monogenic_basis, tower_decompose
from .fourier import kernel_values, spectral_eigenvalue
from .kelvin import inversion, p_map, q_map
from .laguerre import LaguerreTower
from .measure import (inner_product_exact, mehta_constant, norm_constant,
                      sphere_inner_exact)
from .params import DeformParams
from .poly import RadialExpr
from .reflection import (ReflectionSetup, dihedral, hyperoctahedral,
                         symmetric, z2_power)
from .scalars import ExactScalar

__version__ = "0.1.0"

__all__ = [
    "DeformParams", "DeformedContext", "DunklContext", "ExactScalar",
    "LaguerreTower", "RadialExpr", "ReflectionSetup",
    "deformed_transform", "dihedral", "factorization_solutions_generic",
    "factorization_solutions_zero_k", "harmonic_basis",
    "hyperoctahedral", "inner_product_exact", "inversion", "kernel_values",
    "mehta_constant", "monogenic_basis", "norm_constant", "p_map", "q_map",
    "spectral_eigenvalue", "sphere_inner_exact", "symmetric",
    "tower_decompose", "transform_values", "z2_power",
]
