"""
Exact Clifford arithmetic on radial polynomials
===============================================

The computational substrate: polynomials over Cl(0, m) with exact scalar
coefficients, whose terms carry an extra symbolic power of r.  A Clifford
element is the constant case, one term per blade, so it multiplies, bars
and prints like any other expression.  Everything prints exactly; no
floats appear until the very end.
"""

from fractions import Fraction

from dunkldirac import RadialExpr
from dunkldirac.poly import x_vector
from dunkldirac.scalars import ExactScalar


def e(m, i, coeff=1):
    """coeff * e_i in Cl(0, m): a constant expression on blade bit i - 1."""
    return RadialExpr.monomial(m, (0,) * m, coeff, blade=1 << (i - 1))


# Basis vectors square to -1 and anticommute.
e1, e2, e3 = e(3, 1), e(3, 2), e(3, 3)
print("e1 e2        =", (e1 * e2).to_text())
print("e2 e1        =", (e2 * e1).to_text())
print("e1 e1        =", (e1 * e1).to_text())

# The bar involution reverses products and flips signs by grade.
w = (e1 + e(3, 2, 2)) * e3
print("w            =", w.to_text())
print("bar(w)       =", w.bar().to_text())
print("bar(w) w     =", (w.bar() * w).to_text())

# One exact scalar ring holds every constant: sums of
# c * (a/2)^q * 2^p * Gamma(n)... / Gamma(d)...  Powers of 2 stay symbolic
# until they are whole, and so do powers of the base a/2 (here a = 4/3).
s = ExactScalar.power(2, Fraction(1, 2))
print("sqrt(2)^2    =", s * s)
print("sqrt(2)^3    =", s * s * s)
t = ExactScalar.power(Fraction(2, 3), Fraction(1, 3))   # (a/2)^(1/3)
print("t^4          =", t * t * t * t)
# Gamma arguments reduce to (0, 1]: Gamma(7/2) = (15/8) Gamma(1/2).
g = ExactScalar.term(1, gnum=(Fraction(7, 2),), gden=(Fraction(1, 3),))
print("G(7/2)/G(1/3)=", g, "~", float(g))

# RadialExpr: Clifford-valued polynomials with radial shifts r^q.
# The vector variable x = sum x_i e_i squares to -r^2.
x = x_vector(2)
print("x * x        =", (x * x).to_text())

# Radial calculus knows that r depends on the coordinates: the first
# derivative below sees both the polynomial and its radial factor.
f = RadialExpr.monomial(2, (1, 0), r_exp=Fraction(-2))   # x1 / r^2
print("d1 (x1/r^2)  =", f.deriv(1).to_text())
print("Euler        =", f.euler().to_text(), " (degree -1, as it should)")

# Homogeneous pieces split cleanly and remember their degrees.
g = x * x + RadialExpr.monomial(2, (3, 0)) + RadialExpr.monomial(2, (1, 2))
for deg, part in sorted(g.homogeneous_components().items()):
    print(f"degree {deg}:", part.to_text())
