"""Verification suites and report files behind one command-line front end.

Each subcommand runs its suite, writes one JSON line per check to
<out>/<subcommand>.jsonl (or <subcommand>.csv under --format csv) and
<out>/<subcommand>-summary.json, replacing the files of any earlier run, and
exits nonzero when any check fails.  The output directory comes from --out,
else the DUNKLDIRAC_OUT environment variable, else ./reports.

Exact parameters are rationals written like 3/4; floats are rejected so
that no identity is silently checked on an approximation.  Complex values
in reports are [re, im] pairs.  Runs are deterministic for a given --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .deformed import (DeformedContext, factorization_solutions_generic,
                       factorization_solutions_zero_k)
from .dunkl import DunklContext
from .dunkltransform import (deformed_transform, eigenfunction, eigenvalue,
                             inverted_damped_values, transform_inverted,
                             transform_inverted_direct, transform_values)
from .fischer import (fischer_constant, fischer_tower, harmonic_basis,
                      monogenic_basis, monomials, tower_decompose)
from .fourier import (damped_values, fourier_apply, kernel_values,
                      measured_eigenvalue, pde_residual, spectral_eigenvalue)
from .kelvin import (dirac_via_inversion, intertwined_component, inversion,
                     inversion_params, p_map, pq_constant, q_map)
from .laguerre import LaguerreTower
from .measure import (inner_product_exact, norm_constant, sphere_inner_exact,
                      weight_exponent)
from .params import DeformParams
from .poly import RadialExpr
from .quadrature import integrate_expr
from .reflection import (ReflectionSetup, dihedral, from_config,
                         hyperoctahedral, symmetric, z2_power)


# -- argument parsing -------------------------------------------------------

def rational(text: str) -> Fraction:
    t = text.strip()
    try:
        if "/" in t:
            num, den = t.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(t))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational; write it like -3/4")


def rational_list(text: str) -> list:
    return [rational(part) for part in text.split(",")]


def _build_setup(args) -> ReflectionSetup:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise SystemExit(f"config file not found: {path}")
        try:
            return from_config(json.loads(path.read_text()))
        except (ValueError, KeyError) as exc:
            raise SystemExit(f"bad config {path}: {exc}")
    ks = args.k
    fam = args.family
    if fam == "z2":
        if len(ks) == 1:
            ks = ks * args.m
        return z2_power(args.m, ks)
    if fam == "symmetric":
        return symmetric(args.m, ks[0])
    if fam == "hyperoctahedral":
        if len(ks) != 2:
            raise SystemExit("hyperoctahedral needs --k k_short,k_long")
        return hyperoctahedral(args.m, ks[0], ks[1])
    if fam == "dihedral":
        return dihedral(args.m, *ks[:2])
    raise SystemExit(f"unknown family {fam!r}")


def _group_flags(p: argparse.ArgumentParser, m_default: int = 2):
    p.add_argument("--family", default="z2",
                   choices=["z2", "symmetric", "hyperoctahedral", "dihedral"])
    p.add_argument("--m", type=int, default=m_default,
                   help="rank (the n of I2(n) for the dihedral family)")
    p.add_argument("--k", type=rational_list, default=[Fraction(0)],
                   help="multiplicities, comma separated rationals")
    p.add_argument("--config", default=None,
                   help="JSON file {family, m, k}; overrides the flags above")


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report directory")
    p.add_argument("--format", default="json", choices=["json", "csv"])


# -- report plumbing --------------------------------------------------------

def _jsonable(val):
    if isinstance(val, Fraction):
        return str(val)
    if isinstance(val, complex):
        return [val.real, val.imag]
    if isinstance(val, (np.floating, np.integer)):
        return val.item()
    if isinstance(val, np.ndarray):
        return [_jsonable(v) for v in val.tolist()]
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, dict):
        return {str(k): _jsonable(v) for k, v in val.items()}
    if isinstance(val, (bool, int, float, str)) or val is None:
        return val
    return str(val)


class Reporter:
    """Accumulates check rows and writes the JSONL/CSV + summary pair."""

    def __init__(self, name: str, args):
        out = args.out or os.environ.get("DUNKLDIRAC_OUT") or "reports"
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.fmt = getattr(args, "format", "json")
        self.rows = []
        ext = "jsonl" if self.fmt == "json" else "csv"
        self.rows_path = self.dir / f"{name}.{ext}"
        self._fh = self.rows_path.open("w") if self.fmt == "json" else None

    def add(self, row: dict):
        if "pass" in row and not isinstance(row["pass"], bool):
            raise TypeError(f"check verdict must be a bool, got {row['pass']!r}")
        row = _jsonable(row)
        self.rows.append(row)
        if self._fh is not None:
            self._fh.write(json.dumps(row) + "\n")

    def finish(self, **extra) -> int:
        if self._fh is not None:
            self._fh.close()
        else:
            fields = []
            for row in self.rows:
                for key in row:
                    if key not in fields:
                        fields.append(key)
            with self.rows_path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields, restval="")
                writer.writeheader()
                for row in self.rows:
                    writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict))
                                     else v for k, v in row.items()})
        failed = sum(1 for row in self.rows if row.get("pass") is False)
        summary = {"subcommand": self.name, "checks": len(self.rows),
                   "failed": failed, "all_pass": failed == 0,
                   "rows": str(self.rows_path), **_jsonable(extra)}
        (self.dir / f"{self.name}-summary.json").write_text(
            json.dumps(summary, indent=2) + "\n")
        status = "ok" if failed == 0 else f"{failed} FAILED"
        print(f"{self.name}: {len(self.rows)} checks, {status} -> {self.rows_path}")
        return 0 if failed == 0 else 1


def _rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction,
                   max_den: int = 6) -> Fraction:
    den = rng.randint(1, max_den)
    lo, hi = Fraction(lo), Fraction(hi)
    num_lo = -((-lo.numerator * den) // lo.denominator)
    num_hi = (hi.numerator * den) // hi.denominator
    return Fraction(rng.randint(num_lo, num_hi), den)


def _input_set(m: int, degree: int) -> list:
    out = []
    for deg in range(degree + 1):
        for mono in monomials(m, deg):
            for blade in range(1 << m):
                out.append(RadialExpr.monomial(m, mono, blade=blade))
    return out


def _params_from(args, rng: random.Random) -> list:
    """Explicit triple when given, else seeded samples."""
    if args.a is not None:
        b = args.b if args.b is not None else Fraction(0)
        if getattr(args, "c", None) is not None:
            return [DeformParams(args.a, b, args.c)]
        return [DeformParams.commuting(args.a, b)]
    triples = []
    for _ in range(args.trials):
        a = _rand_fraction(rng, Fraction(1, 4), 4)
        if a == 0:
            a = Fraction(2)
        b = _rand_fraction(rng, -2, 2)
        c = _rand_fraction(rng, -2, 2)
        if c == -1:
            c = Fraction(-1, 2)
        triples.append(DeformParams(a, b, c))
    return triples


def _add_inversion_rows(rep: Reporter, dk: DunklContext, inputs: list):
    """Rows for I(I f) = f and I D I = D at (-2, 2 - mu, -2) on each input."""
    dctx = DeformedContext(dk, inversion_params(dk.setup.mu))
    for f in inputs:
        rep.add({"relation": "I(I f) = f", "input": f.to_text(),
                 "pass": (inversion(dk, inversion(dk, f)) - f).is_zero()})
        defect = dirac_via_inversion(dk, f) - dctx.dirac(f)
        rep.add({"relation": "I D I = D at (-2, 2 - mu, -2)",
                 "input": f.to_text(), "pass": defect.is_zero()})


# -- subcommands ------------------------------------------------------------

def cmd_verify_osp(args) -> int:
    rep = Reporter("verify-osp", args)
    rng = random.Random(args.seed)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    inputs = _input_set(setup.m, args.degree)
    for par in _params_from(args, rng):
        dctx = DeformedContext(dk, par)
        for f in inputs:
            for name, defect in dctx.osp_relations_report(f).items():
                rep.add({"relation": name, "input": f.to_text(),
                         "a": par.a, "b": par.b, "c": par.c,
                         "group": setup.name, "pass": defect.is_zero()})
    return rep.finish(family=setup.name, m=setup.m, degree=args.degree)


def cmd_verify_factorization(args) -> int:
    rep = Reporter("verify-factorization", args)
    for m in args.ms:
        setup0 = z2_power(m, Fraction(0))
        dk0 = DunklContext(setup0)
        inputs = _input_set(m, args.degree)
        solutions = factorization_solutions_zero_k(m)
        for par in solutions:
            dctx = DeformedContext(dk0, par)
            ok = all(dctx.factorization_defect(f).is_zero() for f in inputs)
            rep.add({"m": m, "k": "0", "a": par.a, "b": par.b, "c": par.c,
                     "relation": "sum D_i^2 = r^{2-a} Delta", "pass": ok})
        # a perturbed triple must break the factorization
        par = solutions[0]
        bad = DeformParams(par.a, par.b + Fraction(1, 7), par.c)
        dctx = DeformedContext(dk0, bad)
        broke = any(not dctx.factorization_defect(f).is_zero() for f in inputs)
        rep.add({"m": m, "k": "0", "a": bad.a, "b": bad.b, "c": bad.c,
                 "relation": "perturbed triple fails", "pass": broke})
        # generic multiplicity: exactly the two k-independent triples
        setup = z2_power(m, Fraction(1, 2))
        dk = DunklContext(setup)
        for par in factorization_solutions_generic(setup.mu):
            dctx = DeformedContext(dk, par)
            ok = all(dctx.factorization_defect(f).is_zero() for f in inputs)
            rep.add({"m": m, "k": "1/2", "a": par.a, "b": par.b, "c": par.c,
                     "relation": "sum D_i^2 = r^{2-a} Delta", "pass": ok})
    return rep.finish(ms=args.ms, degree=args.degree)


def cmd_verify_basicprops(args) -> int:
    rep = Reporter("verify-basicprops", args)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    for f in _input_set(setup.m, args.degree):
        for name, defect in dk.basic_props_report(f).items():
            rep.add({"relation": name, "input": f.to_text(),
                     "group": setup.name, "pass": defect.is_zero()})
    return rep.finish(family=setup.name, m=setup.m, degree=args.degree)


def cmd_verify_kelvin(args) -> int:
    rep = Reporter("verify-kelvin", args)
    rng = random.Random(args.seed)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    inputs = _input_set(setup.m, args.degree)
    for par in _params_from(args, rng):
        const = pq_constant(par)
        for f in inputs:
            qp = q_map(par, p_map(par, f)) - f.scale(const)
            pq = p_map(par, q_map(par, f)) - f.scale(const)
            rep.add({"relation": "Q P = P Q = (2/a)^{b/2}", "input": f.to_text(),
                     "a": par.a, "b": par.b, "c": par.c,
                     "pass": qp.is_zero() and pq.is_zero()})
        com = DeformParams.commuting(par.a, par.b)
        dctx = DeformedContext(dk, com)
        for f in inputs:
            ok = all((intertwined_component(dctx, i, f)
                      - dctx.dirac_component(i, f)).is_zero()
                     for i in range(1, setup.m + 1))
            rep.add({"relation": "(a/2)^{(b-1)/2} Q T_i P = D_i",
                     "input": f.to_text(), "a": com.a, "b": com.b, "c": com.c,
                     "pass": ok})
    _add_inversion_rows(rep, dk, inputs)
    return rep.finish(family=setup.name, m=setup.m, degree=args.degree)


def cmd_basis(args) -> int:
    rep = Reporter("basis", args)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    build = monogenic_basis if args.kind == "monogenic" else harmonic_basis
    gram = None
    for ell in range(args.ell_max + 1):
        basis = build(dk, ell)
        for idx, f in enumerate(basis):
            row = {"kind": args.kind, "ell": ell, "index": idx,
                   "text": f.to_text(), "terms": f.to_json()}
            if args.kind == "monogenic":
                row["pass"] = dk.dirac(f).is_zero()
            else:
                row["pass"] = dk.laplacian(f).is_zero()
            rep.add(row)
        if args.gram and basis:
            gram = gram or {}
            mat = [[float(sphere_inner_exact(setup, f, g).get(0) or 0.0)
                    for g in basis] for f in basis]
            gram[str(ell)] = mat
    extra = {"family": setup.name, "m": setup.m}
    if gram is not None:
        extra["gram"] = gram
    return rep.finish(**extra)


def cmd_fischer(args) -> int:
    rep = Reporter("fischer", args)
    rng = random.Random(args.seed)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    par = DeformParams(args.a, args.b, args.c)
    dctx = DeformedContext(dk, par)
    # random homogeneous inputs split into towers and reassembled
    for _ in range(args.trials):
        deg = rng.randint(1, args.degree)
        terms = RadialExpr(setup.m)
        for mono in monomials(setup.m, deg):
            coeff = _rand_fraction(rng, -3, 3)
            if coeff:
                terms = terms + RadialExpr.monomial(
                    setup.m, mono, coeff, blade=rng.randrange(1 << setup.m))
        if terms.is_zero():
            continue
        try:
            parts = tower_decompose(dctx, terms)
        except ValueError as exc:
            rep.add({"relation": "tower decomposition", "degree": deg,
                     "excluded": str(exc)})
            continue
        total = RadialExpr(setup.m)
        annihilated = True
        for s, u in parts.items():
            annihilated = annihilated and dctx.dirac(u).is_zero()
            piece = u
            for _ in range(s):
                piece = dctx.x_a(piece)
            total = total + piece
        rep.add({"relation": "decomposition reassembles", "degree": deg,
                 "slots": sorted(parts),
                 "pass": annihilated and (total - terms).is_zero()})
    # the one-step lowering constants on explicit towers
    for ell in range(args.ell_max + 1):
        seed = monogenic_basis(dk, ell)[0]
        tower = fischer_tower(dctx, seed, ell, args.s_max)
        for s in range(1, args.s_max + 1):
            want = tower[s - 1].scale(fischer_constant(dctx, ell, s))
            defect = dctx.dirac(tower[s]) - want
            rep.add({"relation": "D x_a^s u = const x_a^{s-1} u",
                     "ell": ell, "s": s,
                     "const": fischer_constant(dctx, ell, s),
                     "pass": defect.is_zero()})
    return rep.finish(family=setup.name, m=setup.m,
                      a=par.a, b=par.b, c=par.c)


def cmd_laguerre_table(args) -> int:
    rep = Reporter("laguerre-table", args)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    par = DeformParams(args.a, args.b, args.c)
    dctx = DeformedContext(dk, par)
    for ell in range(args.ell_max + 1):
        if dctx.is_singular(ell):
            rep.add({"ell": ell, "excluded": "singular locus"})
            continue
        tower = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
        for t in range(args.t_max + 1):
            psi = tower.psi(t)
            row = {"t": t, "ell": ell,
                   "coefficients": psi.to_json(),
                   "step_constant": tower.step_constant(t),
                   "pass": (psi - tower.psi_closed(t)).is_zero()}
            try:
                comb = norm_constant(dctx, ell, t)
                row["norm_constant"] = str(comb)
                row["norm_numeric"] = float(comb)
            except ValueError as exc:
                row["norm_constant"] = None
                row["norm_note"] = str(exc)
            rep.add(row)
    return rep.finish(family=setup.name, m=setup.m,
                      a=par.a, b=par.b, c=par.c)


def cmd_orthogonality(args) -> int:
    rep = Reporter("orthogonality", args)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    par = DeformParams(args.a, args.b, args.c)
    dctx = DeformedContext(dk, par)
    towers = {}
    for ell in range(args.ell_max + 1):
        if not dctx.is_singular(ell):
            towers[ell] = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
    eh = weight_exponent(dctx)
    for ell, tower in towers.items():
        for ell2, tower2 in towers.items():
            for t in range(args.t_max + 1):
                for s in range(args.t_max + 1):
                    if (ell2, s) < (ell, t):
                        continue
                    f, g = tower.psi(t), tower2.psi(s)
                    try:
                        got = inner_product_exact(dctx, f, g)
                    except ValueError as exc:
                        rep.add({"t": t, "ell": ell, "s": s, "ell2": ell2,
                                 "excluded": str(exc)})
                        continue
                    diag = t == s and ell == ell2
                    if diag:
                        nc = norm_constant(dctx, ell, t)
                        want = {bl: nc * comb for bl, comb in
                                sphere_inner_exact(setup, tower.monogenic,
                                                   tower.monogenic).items()}
                    else:
                        want = {}
                    row = {"t": t, "ell": ell, "s": s, "ell2": ell2,
                           "exact": {bl: str(comb) for bl, comb in got.items()},
                           "pass": got == want}
                    if args.numeric:
                        prod = f.bar().mul_expr(g)
                        num = integrate_expr(setup, prod, par.a, 2, eh,
                                             args.nr, args.ntheta)
                        ref = np.zeros(1 << setup.m)
                        for bl, comb in got.items():
                            ref[bl] = float(comb)
                        scale = max(np.max(np.abs(ref)), 1e-30) if diag else 1.0
                        err = float(np.max(np.abs(num - ref)) / scale)
                        row["numeric_err"] = err
                        row["pass"] = row["pass"] and err <= args.tol
                    rep.add(row)
    return rep.finish(family=setup.name, m=setup.m, a=par.a, b=par.b, c=par.c,
                      tol=args.tol)


def cmd_transform_eigen(args) -> int:
    rep = Reporter("transform-eigen", args)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    par = DeformParams.commuting(args.a, args.b)
    dctx = DeformedContext(dk, par)
    rng = np.random.default_rng(args.seed)
    targets = rng.uniform(0.4, 1.2, size=(args.points, setup.m))
    targets *= np.sign(rng.uniform(-1, 1, size=targets.shape))
    closed = setup.gamma == 0
    for ell in range(args.l_max + 1):
        if dctx.is_singular(ell):
            rep.add({"ell": ell, "excluded": "singular locus"})
            continue
        tower = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
        for t in range(args.t_max + 1):
            start = time.perf_counter()
            psi = tower.psi(t)
            if closed:
                got = fourier_apply(dctx, psi, targets, args.nr, args.ntheta)
            else:
                got = deformed_transform(dctx, psi, targets, args.order,
                                         args.nr, args.ntheta)
            ref = damped_values(dctx, psi, targets)
            lam, resid = measured_eigenvalue(ref, got)
            want = spectral_eigenvalue(par, ell, t)
            rel = abs(lam - want) / abs(want)
            ms = 1000 * (time.perf_counter() - start)
            rep.add({"t": t, "l": ell, "expected_eigenvalue": want,
                     "measured": lam, "rel_err": rel, "residual": resid,
                     "runtime_ms": round(ms, 3),
                     "pass": bool(rel <= args.tol and resid <= args.tol)})
    return rep.finish(family=setup.name, m=setup.m, a=par.a, b=par.b, c=par.c,
                      kernel="closed" if closed else "series", tol=args.tol)


def cmd_kernel_residual(args) -> int:
    rep = Reporter("kernel-residual", args)
    par = DeformParams.commuting(args.a, args.b)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        x = rng.uniform(-1.5, 1.5, size=(1, args.m))
        y = rng.uniform(-1.5, 1.5, size=(1, args.m))
        res = pde_residual(par, x, y)
        rep.add({"x": x[0], "y": y[0], "residual": res,
                 "pass": bool(res <= args.tol)})
    return rep.finish(m=args.m, a=par.a, b=par.b, c=par.c, tol=args.tol)


def cmd_a_minus2_suite(args) -> int:
    rep = Reporter("a-minus2-suite", args)
    setup = _build_setup(args)
    dk = DunklContext(setup)
    _add_inversion_rows(rep, dk, _input_set(setup.m, args.degree))
    rng = np.random.default_rng(args.seed)
    targets = rng.uniform(0.5, 1.3, size=(args.points, setup.m))
    targets *= np.sign(rng.uniform(-1, 1, size=targets.shape))
    for j in range(args.j_max + 1):
        for ell in range(args.l_max + 1):
            g = inversion(dk, eigenfunction(dk, j, ell,
                                            harmonic_basis(dk, ell)[0]))
            one = transform_inverted(dk, g, targets, args.order,
                                     args.nr, args.ntheta)
            two = transform_inverted_direct(dk, g, targets, args.order,
                                            args.nr, args.ntheta)
            ref = inverted_damped_values(dk, g, targets)
            scale = float(np.max(np.abs(ref)))
            agree = float(np.max(np.abs(one - two))) / scale
            eig = float(np.max(np.abs(one - eigenvalue(j, ell) * ref))) / scale
            rep.add({"j": j, "l": ell, "paths_agree_err": agree,
                     "eigen_rel_err": eig,
                     "pass": agree <= args.tol and eig <= args.tol})
    return rep.finish(family=setup.name, m=setup.m, tol=args.tol)


# -- wiring -----------------------------------------------------------------

def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="dunkldirac",
        description="verification suites for the deformed Dunkl Dirac family")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify-osp", help="superalgebra relations, exact")
    _group_flags(p)
    p.add_argument("--a", type=rational, default=None)
    p.add_argument("--b", type=rational, default=None)
    p.add_argument("--c", type=rational, default=None)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--trials", type=int, default=3)
    _common_flags(p)
    p.set_defaults(run=cmd_verify_osp)

    p = sub.add_parser("verify-factorization",
                       help="classified triples factorize, perturbed ones fail")
    p.add_argument("--ms", type=int, nargs="+", default=[2, 3])
    p.add_argument("--degree", type=int, default=3)
    _common_flags(p)
    p.set_defaults(run=cmd_verify_factorization)

    p = sub.add_parser("verify-basicprops",
                       help="first-order Dunkl calculus relations, exact")
    _group_flags(p)
    p.add_argument("--degree", type=int, default=3)
    _common_flags(p)
    p.set_defaults(run=cmd_verify_basicprops)

    p = sub.add_parser("verify-kelvin",
                       help="P/Q conjugations and the inversion, exact")
    _group_flags(p)
    p.add_argument("--a", type=rational, default=None)
    p.add_argument("--b", type=rational, default=None)
    p.add_argument("--c", type=rational, default=None)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--trials", type=int, default=3)
    _common_flags(p)
    p.set_defaults(run=cmd_verify_kelvin)

    p = sub.add_parser("basis", help="harmonic or monogenic basis dump")
    _group_flags(p)
    p.add_argument("--kind", default="monogenic",
                   choices=["monogenic", "harmonic"])
    p.add_argument("--ell-max", type=int, default=3)
    p.add_argument("--gram", action="store_true",
                   help="include numeric sphere Gram matrices in the summary")
    _common_flags(p)
    p.set_defaults(run=cmd_basis)

    p = sub.add_parser("fischer",
                       help="tower decomposition and lowering constants")
    _group_flags(p)
    p.add_argument("--a", type=rational, default=Fraction(2))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--c", type=rational, default=Fraction(0))
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--ell-max", type=int, default=2)
    p.add_argument("--s-max", type=int, default=4)
    _common_flags(p)
    p.set_defaults(run=cmd_fischer)

    p = sub.add_parser("laguerre-table",
                       help="psi_t coefficients with step and norm constants")
    _group_flags(p)
    p.add_argument("--a", type=rational, default=Fraction(2))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--c", type=rational, default=Fraction(0))
    p.add_argument("--t-max", type=int, default=4)
    p.add_argument("--ell-max", type=int, default=2)
    _common_flags(p)
    p.set_defaults(run=cmd_laguerre_table)

    p = sub.add_parser("orthogonality",
                       help="damped towers are orthogonal with known norms")
    _group_flags(p)
    p.add_argument("--a", type=rational, default=Fraction(2))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--c", type=rational, default=Fraction(0))
    p.add_argument("--t-max", type=int, default=3)
    p.add_argument("--ell-max", type=int, default=2)
    p.add_argument("--numeric", action="store_true",
                   help="also cross-check each pair by quadrature")
    p.add_argument("--nr", type=int, default=60)
    p.add_argument("--ntheta", type=int, default=80)
    p.add_argument("--tol", type=float, default=1e-8)
    _common_flags(p)
    p.set_defaults(run=cmd_orthogonality)

    p = sub.add_parser("transform-eigen",
                       help="transform eigenvalues on the damped towers")
    _group_flags(p)
    p.add_argument("--a", type=rational, default=Fraction(2))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--t-max", type=int, default=3)
    p.add_argument("--l-max", type=int, default=2)
    p.add_argument("--nr", type=int, default=100)
    p.add_argument("--ntheta", type=int, default=120)
    p.add_argument("--order", type=int, default=28,
                   help="kernel series order for nontrivial multiplicities")
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-6)
    _common_flags(p)
    p.set_defaults(run=cmd_transform_eigen)

    p = sub.add_parser("kernel-residual",
                       help="closed kernel satisfies its first-order system")
    p.add_argument("--a", type=rational, default=Fraction(2))
    p.add_argument("--b", type=rational, default=Fraction(0))
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    _common_flags(p)
    p.set_defaults(run=cmd_kernel_residual)

    p = sub.add_parser("a-minus2-suite",
                       help="the inverted realization, exact and through the transform")
    _group_flags(p)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--j-max", type=int, default=1)
    p.add_argument("--l-max", type=int, default=1)
    p.add_argument("--order", type=int, default=28)
    p.add_argument("--nr", type=int, default=60)
    p.add_argument("--ntheta", type=int, default=64)
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-6)
    _common_flags(p)
    p.set_defaults(run=cmd_a_minus2_suite)

    args = top.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
