"""Monogenic and harmonic polynomial spaces, null solutions, raising towers.

A spherical monogenic of degree ell is a homogeneous Clifford-valued
polynomial killed by the Dunkl Dirac operator.  Multiplying by r^{beta_ell}
with beta_ell = -(b + c ell)/(1 + c) turns it into a null solution of the
deformed operator, and powers of x_a then raise it through a tower on which
the operator acts by explicit one-step constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .deformed import DeformedContext
from .dunkl import DunklContext
from .linalg import nullspace
from .poly import RadialExpr


def monomials(m: int, deg: int) -> list:
    """All exponent tuples of total degree deg, lexicographically sorted."""
    if deg < 0:
        return []
    if m == 1:
        return [(deg,)]
    out = []
    for e in range(deg, -1, -1):
        out.extend((e,) + rest for rest in monomials(m - 1, deg - e))
    return sorted(out)


def harmonic_dimension(m: int, ell: int) -> int:
    """Dimension of the degree-ell harmonics in m variables; a test oracle
    for :func:`harmonic_basis`, which no suite runs."""
    if ell < 0:
        return 0
    d = comb(ell + m - 1, m - 1)
    return d - (comb(ell + m - 3, m - 1) if ell >= 2 else 0)


def monogenic_dimension(m: int, ell: int) -> int:
    """Dimension of the degree-ell monogenics with values in Cl(0, m); a test
    oracle for :func:`monogenic_basis`, which no suite runs."""
    if ell < 0:
        return 0
    d = comb(ell + m - 1, m - 1)
    prev = comb(ell + m - 2, m - 1) if ell >= 1 else 0
    return (d - prev) * (1 << m)


def _kernel_basis(op, m: int, cols: list) -> list:
    """Basis of the kernel of op on the span of the x^mono e_blade in cols.

    Matrix rows are keyed by the term keys (s, mono, blade) of the images;
    the normal form makes those coordinates unique.
    """
    images = [op(RadialExpr.monomial(m, mo, blade=blade)) for mo, blade in cols]
    rows: dict = {}
    for image in images:
        for key, _c in image.rational_terms():
            rows.setdefault(key, len(rows))
    if not rows:
        return [RadialExpr.monomial(m, mo, blade=blade) for mo, blade in cols]
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for j, image in enumerate(images):
        for key, c in image.rational_terms():
            mat[rows[key]][j] = c
    return [RadialExpr(m, {(0, mo, blade): c for (mo, blade), c in zip(cols, vec) if c})
            for vec in nullspace(mat)]


def harmonic_basis(dk: DunklContext, ell: int) -> list:
    """Basis of scalar Dunkl-harmonics of degree ell (kernel of the Laplacian)."""
    return _kernel_basis(dk.laplacian, dk.m, [(mo, 0) for mo in monomials(dk.m, ell)])


def monogenic_basis(dk: DunklContext, ell: int) -> list:
    """Basis of degree-ell spherical monogenics with values in the full algebra."""
    return _kernel_basis(dk.dirac, dk.m, [(mo, blade) for mo in monomials(dk.m, ell)
                                          for blade in range(1 << dk.m)])


def null_solution(dctx: DeformedContext, monogenic: RadialExpr, ell: int) -> RadialExpr:
    """r^{beta_ell} M_ell, annihilated by the deformed operator."""
    return monogenic.mul_radial(dctx.beta(ell))


def fischer_constant(dctx: DeformedContext, ell: int, s: int) -> Fraction:
    """One-step constant: D (x_a^s r^{beta} M) = const * x_a^{s-1} r^{beta} M.

    Even s = 2t gives -(1+c) a t; odd s = 2t+1 gives -(1+c)(gamma_ell + a t).
    The odd constants vanish exactly on the singular locus gamma_ell/a in
    {0, -1, -2, ...}.
    """
    if s <= 0:
        return Fraction(0)
    half, odd = divmod(s, 2)
    return -(1 + dctx.par.c) * (dctx.gamma_ell(ell) * odd + dctx.par.a * half)


def fischer_tower(dctx: DeformedContext, monogenic: RadialExpr, ell: int,
                  smax: int) -> list:
    """[x_a^s r^{beta_ell} M_ell for s = 0..smax]."""
    f = null_solution(dctx, monogenic, ell)
    tower = [f]
    for _ in range(smax):
        f = dctx.x_a(f)
        tower.append(f)
    return tower


def _slot_degree(dctx: DeformedContext, h: Fraction, s: int):
    """The monogenic degree ell forced by homogeneity h in the slot x_a^s."""
    p = dctx.par
    ell = (h - s * p.a / 2) * (1 + p.c) + p.b
    if ell.denominator != 1 or ell < 0:
        return None
    return int(ell)


def tower_decompose(dctx: DeformedContext, f: RadialExpr, max_steps: int = 64) -> dict:
    """Split homogeneous f into sum_s x_a^s u_s with D u_s = 0.

    Works by applying D until it annihilates f; the top slot then telescopes
    through the Fischer constants and is peeled off.  Raises when f is not a
    finite tower over null solutions (at once, before any D is applied, when
    no slot s <= max_steps admits a monogenic degree at f's homogeneity), and
    when the telescope crosses the singular locus (a vanishing odd constant),
    where the decomposition genuinely breaks down.
    """
    if f.is_zero():
        return {}
    parts = f.homogeneous_components()
    if len(parts) != 1:
        raise ValueError("tower decomposition needs homogeneous input")
    h = next(iter(parts))
    if all(_slot_degree(dctx, h, s) is None for s in range(max_steps + 1)):
        raise ValueError(f"homogeneity {h} admits no monogenic degree in any slot")
    out: dict = {}
    rem = f
    while not rem.is_zero():
        chain = [rem]
        while not chain[-1].is_zero():
            if len(chain) > max_steps:
                raise ValueError("not a finite tower over null solutions")
            chain.append(dctx.dirac(chain[-1]))
        top = len(chain) - 2
        ell = _slot_degree(dctx, h, top)
        if ell is None:
            raise ValueError(f"slot s={top} admits no monogenic degree")
        prod = Fraction(1)
        for s in range(1, top + 1):
            const = fischer_constant(dctx, ell, s)
            if const == 0:
                raise ValueError(
                    f"singular locus: step constant vanishes at ell={ell}, s={s}")
            prod *= const
        u = chain[top].scale(1 / prod)
        out[top] = u
        piece = u
        for _ in range(top):
            piece = dctx.x_a(piece)
        rem = rem - piece
        if top == 0:
            break
    if not rem.is_zero():
        raise ValueError("residue left after peeling the tower")
    return out
