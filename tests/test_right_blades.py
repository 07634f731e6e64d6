"""The identity behind the suites' blade fan-out: report(f e_B) = report(f) e_B.

verify-osp, verify-basicprops, verify-kelvin and a-minus2-suite run each
report once per scalar monomial and reach every blade by right
multiplication (``cli._per_blade``).  That is sound because every operator
the reports apply multiplies by Clifford elements from the left, so it
commutes with right multiplication by a blade.  These tests hold each
report to the identity on multi-term inputs, also where its defects are
nonzero, and show that a report multiplying from the right breaks it.
"""

import random
from fractions import Fraction

import pytest

from dunkldirac.deformed import DeformedContext
from dunkldirac.dunkl import DunklContext
from dunkldirac.fischer import monomials
from dunkldirac.kelvin import InversionReport, KelvinReport
from dunkldirac.params import DeformParams
from dunkldirac.poly import RadialExpr
from dunkldirac.reflection import symmetric, z2_power

from conftest import rand_fraction

GROUPS = {
    "z2^3": lambda: z2_power(3, [Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)]),
    # off-axis reflections, so every operator mixes monomials
    "symmetric(3)": lambda: symmetric(3, Fraction(1, 2)),
}
# off the commuting line c = 2/a - 1 = 1/2, where [D_i, D_j] and the
# factorization defect are nonzero
TRIPLE = DeformParams(Fraction(4, 3), Fraction(-3, 5), Fraction(5, 7))
REPORTS = ("osp_relations_report", "basic_props_report", "factorization_defect",
           "commute_defect", "KelvinReport.rescaling", "KelvinReport.intertwining",
           "InversionReport")


def _inputs(m: int) -> list:
    """Scalar inputs with terms at several radial exponents, random rational
    coefficients and an x_m^2 that folds into r^2 - x_1^2 - ... - x_{m-1}^2."""
    rng = random.Random(20261020)
    pool = [mono for d in range(3) for mono in monomials(m, d)]
    out = []
    coeff = lambda: rand_fraction(rng, -3, 3) or Fraction(1)
    for _ in range(2):
        f = RadialExpr.monomial(m, (0,) * (m - 1) + (2,), coeff())
        for s in (0, Fraction(1, 2), Fraction(-1, 3), 2):
            f = f + RadialExpr.monomial(m, rng.choice(pool), coeff(), r_exp=s)
        out.append(f)
    return out


def _reports(dk: DunklContext) -> dict:
    dctx = DeformedContext(dk, TRIPLE)
    kelvin = KelvinReport(dk, TRIPLE)
    pairs = [(i, j) for i in range(1, dk.m + 1) for j in range(i + 1, dk.m + 1)]
    return {
        "osp_relations_report": dctx.osp_relations_report,
        "basic_props_report": dk.basic_props_report,
        "factorization_defect": dctx.factorization_defect,
        "commute_defect": lambda f: tuple(dctx.commute_defect(i, j, f) for i, j in pairs),
        "KelvinReport.rescaling": kelvin.rescaling,
        "KelvinReport.intertwining": kelvin.intertwining,
        "InversionReport": InversionReport(dk),
    }


def _times(value, blade: int):
    """A report's value (a dict or tuple of defects, or one) times e_blade."""
    if isinstance(value, dict):
        return {name: d.blade_mul_right(blade) for name, d in value.items()}
    if isinstance(value, tuple):
        return tuple(d.blade_mul_right(blade) for d in value)
    return value.blade_mul_right(blade)


def _defects(value) -> list:
    if isinstance(value, dict):
        return list(value.values())
    return list(value) if isinstance(value, tuple) else [value]


def _fans_out(report, m: int, inputs: list) -> bool:
    return all(report(f.blade_mul_right(blade)) == _times(report(f), blade)
               for f in inputs for blade in range(1 << m))


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group(request):
    dk = DunklContext(GROUPS[request.param]())
    return dk, _reports(dk), _inputs(dk.m)


@pytest.mark.parametrize("name", REPORTS)
def test_each_report_commutes_with_right_blades(group, name):
    dk, reports, inputs = group
    assert _fans_out(reports[name], dk.m, inputs)


def test_the_off_line_defects_are_nonzero(group):
    """The two defects that vanish only for special triples are nonzero here,
    so the identity is checked on more than zeros."""
    _, reports, inputs = group
    for name in ("factorization_defect", "commute_defect"):
        assert any(not d.is_zero() for f in inputs for d in _defects(reports[name](f)))


def test_reports_with_a_shifted_constant_still_commute(group):
    """A constant one step off in the osp, Kelvin and inversion reports makes
    their defects nonzero; the identity holds all the same."""
    dk, _, inputs = group
    dctx = DeformedContext(dk, TRIPLE)
    dctx.delta += 1
    rescaled, intertwined = KelvinReport(dk, TRIPLE), KelvinReport(dk, TRIPLE)
    rescaled.constant += 1
    intertwined.prefactor += 1
    inverted = InversionReport(dk)
    inverted.mu += 1
    for report in (dctx.osp_relations_report, rescaled.rescaling,
                   intertwined.intertwining, inverted):
        assert any(not d.is_zero() for f in inputs for d in _defects(report(f)))
        assert _fans_out(report, dk.m, inputs)


def test_a_report_multiplying_from_the_right_is_rejected(group):
    """f -> f e_1 multiplies from the right: (f e_2) e_1 = -(f e_1) e_2, so
    the check must fail."""
    dk, _, inputs = group
    assert not _fans_out(lambda f: f.blade_mul_right(1), dk.m, inputs)
