"""The (a, b, c) parameter triple of the deformed Dirac family.

Conventions: a scales the radial deformation x_a = r^{a/2-1} x, b weights the
multiplication term, c weights the Euler term.  The composite exponent
l = 1 - a/2 shows up in every component formula, so it is exposed here.
Parameters are kept rational; a = 0 and c = -1 are degenerate and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DeformParams:
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.a == 0:
            raise ValueError("a = 0 degenerates the radial deformation")
        if self.c == -1:
            raise ValueError("c = -1 makes 1 + c vanish")

    @property
    def l(self) -> Fraction:
        """The exponent 1 - a/2 carried by the Dunkl part of each component."""
        return 1 - self.a / 2

    def beta(self, ell: int) -> Fraction:
        """Radial exponent beta_ell = -(b + c*ell)/(1 + c) of the null solutions."""
        return -(self.b + self.c * ell) / (1 + self.c)

    def is_commuting_choice(self) -> bool:
        """True when the components D_i pairwise commute, i.e. c = 2/a - 1."""
        return self.c == 2 / Fraction(self.a) - 1

    @classmethod
    def commuting(cls, a, b) -> "DeformParams":
        """The c making the components commute for given a and b."""
        a = Fraction(a)
        return cls(a, Fraction(b), 2 / a - 1)

    @classmethod
    def ansatz(cls, a, mu) -> "DeformParams":
        """The (b, c) pair produced by conjugating the Dunkl Dirac operator.

        With b = (a/2 - 1)(a/2 + mu - 1)/2 and c = a/2 - 1 the operator equals
        -(1/2)[x_a, r^{2-a} Delta_k].
        """
        a = Fraction(a)
        mu = Fraction(mu)
        half = a / 2
        return cls(a, (half - 1) * (half + mu - 1) / 2, half - 1)
