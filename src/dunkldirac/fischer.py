"""Monogenic and harmonic polynomial spaces, null solutions, raising towers.

A spherical monogenic of degree ell is a homogeneous Clifford-valued
polynomial killed by the Dunkl Dirac operator.  Multiplying it by
r^{beta_ell} with beta_ell = -(b + c ell)/(1 + c) turns it into a null
solution of the deformed operator, and powers of x_a then raise it through a
tower on which the operator acts by explicit one-step constants.

The bases come from the Fischer decomposition, one element per seed monomial
and no linear solve: a seed is projected onto the harmonics by Dunkl-Xu's
formula in powers of |x|^2 Delta_k, and a harmonic onto the monogenics by
one step of x D.  The seeds are the monomials with x_m to a power below 2
(harmonics) or free of x_m (monogenics, times each blade), as many as the
dimension of the space, and their projections are independent.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .deformed import DeformedContext
from .dunkl import DunklContext
from .linalg import primitive_scale
from .poly import RadialExpr


def monomials(m: int, deg: int) -> list:
    """All exponent tuples of total degree deg, lexicographically sorted."""
    if m == 1:
        return [(deg,)] if deg >= 0 else []
    return [(e,) + rest for e in range(deg + 1) for rest in monomials(m - 1, deg - e)]


def harmonic_dimension(m: int, ell: int) -> int:
    """Dimension of the degree-ell harmonics in m variables; a test oracle
    for the span of :func:`harmonic_basis`."""
    if ell < 0:
        return 0
    return comb(ell + m - 1, m - 1) - (comb(ell + m - 3, m - 1) if ell >= 2 else 0)


def monogenic_dimension(m: int, ell: int) -> int:
    """Dimension of the degree-ell monogenics with values in Cl(0, m); a test
    oracle for the span of :func:`monogenic_basis`."""
    if ell < 0:
        return 0
    return (comb(ell + m - 1, m - 1) - (comb(ell + m - 2, m - 1) if ell else 0)) << m


def _pole(g: Fraction, kind: str, n: int) -> bool:
    """Whether the degree-n projection of the kind divides by zero at
    gamma + m/2 = g: (2 - g - n)_j vanishes for a j <= n/2, or, for a
    monogenic of degree n >= 1, n - 1 + g does."""
    return (any(g == 2 - n + i for i in range(n // 2))
            or (kind == "monogenic" and n > 0 and g == 1 - n))


def singular_degree(setup, kind: str, top: int):
    """The least degree n <= top at which the basis of the kind ("harmonic"
    or "monogenic") divides by zero, or None; negative multiplicities only."""
    g = setup.gamma + Fraction(setup.m, 2)
    return next((n for n in range(top + 1) if _pole(g, kind, n)), None)


def _projections(dk: DunklContext, kind: str, ell: int):
    """The projections onto the degree-ell harmonics or monogenics (kind) of
    the seeds x^beta with beta_m <= 1 or beta_m = 0 respectively, in
    :func:`monomials` order, each scaled by the positive rational that makes
    its coefficients coprime integers."""
    g = dk.setup.gamma + Fraction(dk.m, 2)
    if _pole(g, kind, ell):
        raise ValueError(f"the degree-{ell} {kind} projection divides by zero")
    for mo in monomials(dk.m, ell):
        if mo[-1] > (kind == "harmonic"):
            continue
        h = term = RadialExpr.monomial(dk.m, mo)
        w = Fraction(1)
        for j in range(1, ell // 2 + 1):
            term, w = dk.laplacian(term), w / (4 * j * (1 - g - ell + j))
            h = h + term.mul_radial(2 * j).scale(w)
        if kind == "monogenic" and ell:
            h = h + dk.dirac(h).vector_mul_left().scale(Fraction(1, 2 * (ell - 1 + g)))
        yield h.scale(primitive_scale(h.terms.values()))


def harmonic_basis(dk: DunklContext, ell: int) -> list:
    """Basis of scalar Dunkl-harmonics of degree ell (kernel of the Laplacian):
    for each seed P = x^beta with beta_m <= 1, Dunkl and Xu's projection
    (Orthogonal Polynomials of Several Variables, Thm. 5.2.4)
    sum_j |x|^{2j} Delta_k^j P / (4^j j! (2 - gamma - m/2 - ell)_j).
    Raises ValueError where a denominator vanishes."""
    return list(_projections(dk, "harmonic", ell))


def monogenic_basis(dk: DunklContext, ell: int) -> list:
    """Basis of degree-ell spherical monogenics with values in the full algebra:
    for each seed x^beta with beta_m = 0 and harmonic projection h, the
    monogenic h + x D h / (2 (ell - 1 + gamma + m/2)) (D^2 h = 0 and
    {D, x} = -2 (E + gamma + m/2)), times each blade in turn.  Raises
    ValueError where a denominator vanishes."""
    return [mg.blade_mul_right(blade) for mg in _projections(dk, "monogenic", ell)
            for blade in range(1 << dk.m)]


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
