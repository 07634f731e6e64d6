"""Clifford-valued Laguerre functions built by raising null solutions.

The tower starts from a null solution r^{beta_ell} M_ell and repeatedly
applies D - 2(1+c) x_a.  Each member factors through a generalized Laguerre
polynomial in 2 r^a / a; the closed coefficients live here, the recursion
lives in :class:`~dunkldirac.deformed.DeformedContext`, and tests play the
two against each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .deformed import DeformedContext
from .fischer import fischer_constant, null_solution
from .poly import RadialExpr


def laguerre_poly(n: int, alpha) -> list:
    """Coefficient list of L_n^alpha: entry i multiplies z^i."""
    alpha = Fraction(alpha)
    coeffs = []
    for i in range(n + 1):
        top = Fraction(1)
        for t in range(i + 1, n + 1):
            top *= alpha + t
        coeffs.append((-1) ** i * top / (factorial(i) * factorial(n - i)))
    return coeffs


class LaguerreTower:
    """The functions psi_t = (D - 2(1+c) x_a)^t (r^{beta_ell} M_ell).

    Multiplying by e^{-r^a/a} (done numerically by the quadrature layer)
    turns these into the eigenfunctions of the generalized Fourier transform.
    """

    def __init__(self, dctx: DeformedContext, ell: int, monogenic: RadialExpr):
        if not dctx.dk.dirac(monogenic).is_zero():
            raise ValueError("seed is not monogenic")
        degs = {s + sum(mono) for (s, mono, _b), _c in monogenic.rational_terms()}
        if degs and degs != {Fraction(ell)}:
            raise ValueError(f"seed is not homogeneous of degree {ell}")
        self.dctx = dctx
        self.ell = ell
        self.monogenic = monogenic
        self.base = null_solution(dctx, monogenic, ell)
        self._psis = [self.base]

    def psi(self, t: int) -> RadialExpr:
        """psi_t by the raising recursion, cached."""
        while len(self._psis) <= t:
            self._psis.append(self.dctx.raising(self._psis[-1]))
        return self._psis[t]

    def psi_closed(self, t: int) -> RadialExpr:
        """psi_t from the closed Laguerre form.

        psi_{2t}   =  2^{2t}   (1+c)^{2t}   t! (a/2)^t L_t^{g/a - 1}(2 r^a/a) r^{beta} M
        psi_{2t+1} = -2^{2t+1} (1+c)^{2t+1} t! (a/2)^t L_t^{g/a}(2 r^a/a) x_a r^{beta} M

        with g = gamma_ell.
        """
        dctx = self.dctx
        p = dctx.par
        g_over_a = dctx.gamma_ell(self.ell) / p.a
        half, odd = divmod(t, 2)
        alpha = g_over_a - 1 + odd
        pref = (-2 * (1 + p.c)) ** t * factorial(half) * (p.a / 2) ** half
        core = dctx.x_a(self.base) if odd else self.base
        out = RadialExpr(dctx.m)
        z = Fraction(2) / p.a
        for i, coeff in enumerate(laguerre_poly(half, alpha)):
            if coeff:
                out = out + core.mul_radial(p.a * i).scale(coeff * z ** i)
        return out.scale(pref)

    def step_constant(self, t: int) -> Fraction:
        """D psi_t = step_constant(t) * psi_{t-1}; also the constant in the
        second-order relation D^2 psi - 2(1+c) x_a D psi = step_constant psi.

        It is -2(1+c) times the one-step constant of x_a^t on the same seed.
        """
        return -2 * (1 + self.dctx.par.c) * fischer_constant(self.dctx, self.ell, t)

    def oscillator_constant(self, t: int) -> Fraction:
        """(e^{u} D e^{-u})^2 - (1+c)^2 x_a^2 acts on psi_t by this scalar,
        equivalently (D^2 - (1+c)^2 x_a^2) on psi_t e^{-r^a/a}.

        A test oracle that no suite runs: the suites that build towers are
        benchmarked, and checking it needs D^2 on every rung.
        """
        p = self.dctx.par
        return (1 + p.c) ** 2 * (self.dctx.gamma_ell(self.ell) + p.a * t)
