"""Verification suites and report files behind one command-line front end.

Each suite is registered once in SUITES by the @suite decorator with its
name, help text, whether it takes the group flags (--family, --m, --k,
--config) and its own flags as name=default.  A flag's type follows from its
default: Fraction or None an exact rational, int, float, bool a switch, list
one or more ints, tuple a choice (the first is the default).  A suite is a
generator of check rows whose return value holds its summary extras.

One runner, main, builds the parser from the registry, rejects bad input,
builds the group context, runs the suite and writes one JSON line per check
to <out>/<suite>.jsonl (or <suite>.csv under --format csv) and
<out>/<suite>-summary.json, replacing the files of any earlier run; group
suites' summaries start with the setup's {family, m, k}, which --config reads
back.  The output directory comes from --out, else the DUNKLDIRAC_OUT
environment variable, else ./reports.

The group flags and a --config file are one format, read by
reflection.from_config: a JSON object {family, m, k} with family z2,
symmetric, hyperoctahedral or dihedral, m the rank (for dihedral the order n
of I2(n)) and k one rational or a list of them (symmetric takes 1,
hyperoctahedral 2, dihedral 1 or 2, z2 1 or m).

Each row holds a bool verdict under "pass" or, under "excluded", why its
check could not run; the summary counts both.  Exit codes: 0 when every
check ran and passed (at least one row, none failed or excluded), 1 when a
check failed or was excluded, 2 on bad input (a missing or malformed
--config file among it), which is named in one line before any report is
written.

Exact parameters are rationals written like 3/4; floats are rejected so
that no identity is silently checked on an approximation.  Complex values
in reports are [re, im] pairs.  Runs are deterministic for a given --seed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .clifford import blade_product
from .deformed import (DeformedContext, factorization_solutions_generic,
                       factorization_solutions_zero_k)
from .dunkl import DunklContext
from .dunkltransform import (deformed_transform, eigenfunction, eigenvalue,
                             inverted_damped_values, kernel_route,
                             transform_inverted, transform_inverted_direct)
from .fischer import (fischer_constant, fischer_tower, harmonic_basis,
                      monogenic_basis, monomials, singular_degree, tower_decompose)
from .fourier import (damped_values, measured_eigenvalue, pde_residual,
                      spectral_eigenvalue)
from .kelvin import InversionReport, KelvinReport, inversion, power_cache_info
from .laguerre import LaguerreTower
from .measure import (axis_multiplicities, inner_product_exact, norm_constant,
                      sphere_inner_exact, unit_cache_info, weight_exponent)
from .params import DeformParams
from .poly import RadialExpr, r_squared_power
from .quadrature import KernelTables, integrate_expr, rule_cache_info
from .reflection import ReflectionSetup, from_config, reflect_monomial, z2_power


# -- argument parsing -------------------------------------------------------

class BadInput(Exception):
    """Input no suite can run on; main reports it in one line and exits 2."""


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
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise BadInput(f"config file not found: {path}")
        try:
            return from_config(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            raise BadInput(f"bad config {path}: {exc}") from None
    try:
        return from_config({"family": args.family, "m": args.m, "k": args.k})
    except ValueError as exc:
        raise BadInput(f"--family {args.family} --m {args.m} "
                       f"--k {','.join(map(str, args.k))}: {exc}") from None


def _group_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", default="z2",
                   choices=["z2", "symmetric", "hyperoctahedral", "dihedral"])
    p.add_argument("--m", type=int, default=2,
                   help="rank (the n of I2(n) for the dihedral family)")
    p.add_argument("--k", type=rational_list, default=[Fraction(0)],
                   help="multiplicities, comma separated rationals")
    p.add_argument("--config", default=None,
                   help="JSON file {family, m, k}; overrides the flags above")


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report directory")
    p.add_argument("--format", default="json", choices=["json", "csv"])


FLAG_HELP = {
    "gram": "include numeric sphere Gram matrices in the summary",
    "numeric": "also cross-check each pair by quadrature",
    "order": "kernel series order for nontrivial multiplicities; ignored "
             "where the kernel is closed: the plane wave at k = 0 and the "
             "Bessel product on z2^m, dihedral(1), dihedral(2)",
}


def _add_flag(p: argparse.ArgumentParser, name: str, default):
    """--name with the type its default implies (see the module docstring)."""
    kw = {"default": default, "help": FLAG_HELP.get(name)}
    if isinstance(default, bool):
        kw["action"] = "store_true"
    elif isinstance(default, list):
        kw.update(type=int, nargs="+")
    elif isinstance(default, tuple):
        kw.update(default=default[0], choices=list(default))
    else:
        kw["type"] = {int: int, float: float}.get(type(default), rational)
    p.add_argument("--" + name.replace("_", "-"), **kw)


def _check_params(args):
    """Counts, sizes and seeds are non-negative; a = 0 and c = -1 are
    degenerate for every suite that takes them."""
    for name, val in vars(args).items():
        if type(val) is int and val < 0:
            raise BadInput(f"--{name.replace('_', '-')} must be non-negative")
    for name in ("m", "ms"):
        ranks = getattr(args, name, 1)
        if min(ranks if isinstance(ranks, list) else [ranks]) < 1:
            raise BadInput(f"--{name} must be at least 1")
    if getattr(args, "a", None) == 0:
        raise BadInput("--a 0 degenerates the radial deformation")
    if getattr(args, "c", None) == -1:
        raise BadInput("--c=-1 makes 1 + c vanish")


def _positive_a(args, setup):
    if args.a is not None and args.a <= 0:
        raise BadInput(f"--a={args.a}: the maps P and Q need a > 0")


def _sphere_rule(args, setup):
    """Check for suites that integrate numerically (orthogonality only under
    --numeric): the quadrature's sphere rule stops at m = 3."""
    if setup.m > 3 and getattr(args, "numeric", True):
        raise BadInput(f"rank m = {setup.m}: the quadrature's sphere rule "
                       "covers m <= 3 only; lower --m")


def _exact_sphere(args, setup):
    """Check for basis --gram: exact sphere integrals need a sign-flip group
    whose weight is integrable on the sphere (every k_i > -1/2)."""
    ks = axis_multiplicities(setup) if args.gram else []
    if ks is None:
        raise BadInput(f"--gram: exact sphere integrals need axis-aligned roots, "
                       f"and {setup.name} has roots off the axes")
    if any(k <= Fraction(-1, 2) for k in ks):
        raise BadInput("--gram: the sphere weight diverges where some k <= -1/2")


def _all_of(*checks) -> Callable:
    """One suite check that runs each of the given checks in turn."""
    def check(args, setup):
        for one in checks:
            one(args, setup)
    return check


def _seeds_up_to(flag: str, kind: str = "", rank_one: bool = True) -> Callable:
    """Check for suites building the kind's basis ("monogenic" or "harmonic";
    --kind when empty) in each degree up to --flag: no degree may be singular
    for its projection (negative multiplicities only), and with rank_one each
    must seed an element, which rank 1 does up to degree 0 or 1."""
    def check(args, setup):
        top, name = getattr(args, flag.replace("-", "_")), kind or args.kind
        last = int(name == "harmonic")
        if rank_one and setup.m == 1 and top > last:
            raise BadInput(f"--m 1 has no {name}s of degree above {last}; "
                           f"lower --{flag} or raise --m")
        if (bad := singular_degree(setup, name, top)) is not None:
            raise BadInput(f"gamma + m/2 = {setup.gamma + Fraction(setup.m, 2)}: the "
                           f"degree-{bad} {name} projection divides by zero; "
                           f"lower --{flag} below {bad}")
    return check


# -- report plumbing --------------------------------------------------------

def _jsonable(val):
    if type(val) in (str, bool, int, float) or val is None:
        return val
    if isinstance(val, dict):
        return {str(k): _jsonable(v) for k, v in val.items()}
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
        if "excluded" not in row and not isinstance(row.get("pass"), bool):
            raise TypeError(f"check verdict must be a bool, got {row.get('pass')!r}")
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
        excluded = sum(1 for row in self.rows if "excluded" in row)
        ok = bool(self.rows) and failed == 0 and excluded == 0
        summary = {"subcommand": self.name, "checks": len(self.rows),
                   "failed": failed, "excluded": excluded, "all_pass": ok,
                   "rows": str(self.rows_path), **_jsonable(extra)}
        (self.dir / f"{self.name}-summary.json").write_text(
            json.dumps(summary, indent=2) + "\n")
        status = "ok" if ok else f"{failed} FAILED" if failed else "INCOMPLETE"
        print(f"{self.name}: {len(self.rows)} checks, {excluded} excluded, "
              f"{status} -> {self.rows_path}")
        return 0 if ok else 1


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


def _hits_misses(info) -> dict:
    return {"hits": info.hits, "misses": info.misses}


def _since(before: dict, now: dict) -> dict:
    """Hits and misses counted between two {"hits", "misses"} readings."""
    return {kind: now[kind] - before[kind] for kind in ("hits", "misses")}


def _lru_counts(fn) -> dict:
    """Hits and misses of the lru_cache behind fn, also when a profiler has
    wrapped it (the wrapper keeps the cached function as __wrapped__)."""
    return _hits_misses(inspect.unwrap(fn, stop=lambda f: hasattr(f, "cache_info"))
                        .cache_info())


def _layer_caches(dk: DunklContext) -> dict:
    """The exact layer's caches, named as the bench tracer names its layers."""
    return {"dunkl.dunkl_monomial": dk.cache_info(),
            "reflection.reflect_monomial": _lru_counts(reflect_monomial),
            "clifford.blade_product": _lru_counts(blade_product),
            "poly.r_squared_power": _lru_counts(r_squared_power),
            "measure.unit_integral": unit_cache_info(),
            "kelvin.power": _hits_misses(power_cache_info())}


def _inversion_rows(dk: DunklContext, inputs: list):
    """Rows for I(I f) = f and I D I = D at (-2, 2 - mu, -2) on each
    (input, text) pair, from kelvin.InversionReport; returns the
    cache_info() of the context at (-2, 2 - mu, -2)."""
    report = InversionReport(dk)
    for f, text in inputs:
        twice, conjugated = report(f)
        yield {"relation": "I(I f) = f", "input": text, "pass": twice.is_zero()}
        yield {"relation": "I D I = D at (-2, 2 - mu, -2)",
               "input": text, "pass": conjugated.is_zero()}
    return report.cache_info()


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    name: str
    help: str
    run: Callable          # (args, dk or None) -> generator of rows returning extras
    flags: dict            # name -> default
    group: bool            # takes the group flags; run gets a DunklContext
    check: Optional[Callable]  # (args, setup) -> None, raises BadInput


SUITES: dict = {}


def suite(name: str, help: str, *, group: bool = True,
          check: Optional[Callable] = None, **flags):
    """Register the decorated generator as the suite `name`."""
    def register(run):
        SUITES[name] = Suite(name, help, run, flags, group, check)
        return run
    return register


# -- suites -----------------------------------------------------------------

@suite("verify-osp", "superalgebra relations, exact",
       a=None, b=None, c=None, degree=3, trials=3)
def cmd_verify_osp(args, dk):
    rng = random.Random(args.seed)
    inputs = [(f, f.to_text()) for f in _input_set(dk.m, args.degree)]
    image_cache = {op: {"hits": 0, "misses": 0} for op in ("dirac", "x_a")}
    for par in _params_from(args, rng):
        dctx = DeformedContext(dk, par)
        triple = {"a": str(par.a), "b": str(par.b), "c": str(par.c),
                  "group": dk.setup.name}
        for f, text in inputs:
            for name, defect in dctx.osp_relations_report(f).items():
                yield {"relation": name, "input": text, **triple,
                       "pass": defect.is_zero()}
        for op, counts in dctx.cache_info().items():
            for kind, n in counts.items():
                image_cache[op][kind] += n
    return {"degree": args.degree, "image_cache": image_cache}


def _commute_rows(dctx: DeformedContext, k: str, inputs: list, degree: int):
    """The row for [D_i, D_j] = 0 iff c = 2/a - 1 on one triple.

    [D_i, D_j] acts through x_i T_j - x_j T_i, so only two coordinates and
    inputs of positive degree can tell the line from off it; short of them
    no row is written.
    """
    m, par = dctx.m, dctx.par
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    if pairs and degree > 0:
        zero = all(dctx.commute_defect(i, j, f).is_zero()
                   for i, j in pairs for f in inputs)
        yield {"m": m, "k": k, "a": par.a, "b": par.b, "c": par.c,
               "relation": "[D_i, D_j] = 0 iff c = 2/a - 1",
               "pass": zero == par.is_commuting_choice()}


@suite("verify-factorization", "classified triples factorize, perturbed ones fail",
       group=False, ms=[2, 3], degree=3)
def cmd_verify_factorization(args, _dk):
    for m in args.ms:
        setup0 = z2_power(m, Fraction(0))
        dk0 = DunklContext(setup0)
        inputs = _input_set(m, args.degree)
        solutions = factorization_solutions_zero_k(m)
        for par in solutions:
            dctx = DeformedContext(dk0, par)
            ok = all(dctx.factorization_defect(f).is_zero() for f in inputs)
            yield {"m": m, "k": "0", "a": par.a, "b": par.b, "c": par.c,
                   "relation": "sum D_i^2 = r^{2-a} Delta", "pass": ok}
            yield from _commute_rows(dctx, "0", inputs, args.degree)
        # a perturbed triple must break the factorization
        par = solutions[0]
        bad = DeformParams(par.a, par.b + Fraction(1, 7), par.c)
        dctx = DeformedContext(dk0, bad)
        broke = any(not dctx.factorization_defect(f).is_zero() for f in inputs)
        yield {"m": m, "k": "0", "a": bad.a, "b": bad.b, "c": bad.c,
               "relation": "perturbed triple fails", "pass": broke}
        yield from _commute_rows(dctx, "0", inputs, args.degree)
        # generic multiplicity: exactly the two k-independent triples
        setup = z2_power(m, Fraction(1, 2))
        dk = DunklContext(setup)
        for par in factorization_solutions_generic(setup.mu):
            dctx = DeformedContext(dk, par)
            ok = all(dctx.factorization_defect(f).is_zero() for f in inputs)
            yield {"m": m, "k": "1/2", "a": par.a, "b": par.b, "c": par.c,
                   "relation": "sum D_i^2 = r^{2-a} Delta", "pass": ok}
            yield from _commute_rows(dctx, "1/2", inputs, args.degree)
    return {"ms": args.ms, "degree": args.degree}


@suite("verify-basicprops", "first-order Dunkl calculus relations, exact", degree=3)
def cmd_verify_basicprops(args, dk):
    for f in _input_set(dk.m, args.degree):
        for name, defect in dk.basic_props_report(f).items():
            yield {"relation": name, "input": f.to_text(),
                   "group": dk.setup.name, "pass": defect.is_zero()}
    return {"degree": args.degree}


@suite("verify-kelvin", "P/Q conjugations and the inversion, exact",
       check=_positive_a, a=None, b=None, c=None, degree=3, trials=3)
def cmd_verify_kelvin(args, dk):
    rng = random.Random(args.seed)
    inputs = [(f, f.to_text()) for f in _input_set(dk.m, args.degree)]
    for par in _params_from(args, rng):
        report = KelvinReport(dk, par)
        for f, text in inputs:
            yield {"relation": "Q P = P Q = (2/a)^{b/2}", "input": text,
                   "a": par.a, "b": par.b, "c": par.c,
                   "pass": all(d.is_zero() for d in report.rescaling(f))}
        com = report.par
        for f, text in inputs:
            yield {"relation": "(a/2)^{(b-1)/2} Q T_i P = D_i",
                   "input": text, "a": com.a, "b": com.b, "c": com.c,
                   "pass": all(d.is_zero() for d in report.intertwining(f))}
    # the rows above apply T_i and D_i from the reports' own unit images;
    # image_cache counts the D of the inversion rows alone
    info = yield from _inversion_rows(dk, inputs)
    return {"degree": args.degree, "image_cache": info}


@suite("basis", "harmonic or monogenic basis dump",
       check=_all_of(_seeds_up_to("ell-max", rank_one=False), _exact_sphere),
       kind=("monogenic", "harmonic"), ell_max=3, gram=False)
def cmd_basis(args, dk):
    build, op = ((monogenic_basis, dk.dirac) if args.kind == "monogenic"
                 else (harmonic_basis, dk.laplacian))
    gram = {}
    for ell in range(args.ell_max + 1):
        basis = build(dk, ell)
        for idx, f in enumerate(basis):
            yield {"kind": args.kind, "ell": ell, "index": idx,
                   "text": f.to_text(), "terms": f.to_json(),
                   "pass": op(f).is_zero()}
        if args.gram and basis:
            gram[str(ell)] = [[float(sphere_inner_exact(dk.setup, f.bar().mul_expr(g))
                                     .get(0) or 0.0)
                               for g in basis] for f in basis]
    return {"gram": gram} if gram else {}


@suite("fischer", "tower decomposition and lowering constants",
       check=_all_of(_seeds_up_to("ell-max", "monogenic"),
                     _seeds_up_to("degree", "monogenic", rank_one=False)),
       a=Fraction(2), b=Fraction(0), c=Fraction(0), degree=4, trials=5,
       ell_max=2, s_max=4)
def cmd_fischer(args, dk):
    rng = random.Random(args.seed)
    par = DeformParams(args.a, args.b, args.c)
    dctx = DeformedContext(dk, par)
    bases = [monogenic_basis(dk, ell)
             for ell in range(max(args.degree, args.ell_max) + 1)]
    # the slots x_a^s r^{beta_ell} M_ell with s + ell <= degree whose step
    # constants are nonzero, keyed by their homogeneity s a/2 + beta_ell + ell
    slots: dict = {}
    for ell in range(args.degree + 1):
        for s in range(args.degree - ell + 1):
            if bases[ell] and all(fischer_constant(dctx, ell, j) for j in range(1, s + 1)):
                h = s * par.a / 2 + dctx.beta(ell) + ell
                slots.setdefault(h, []).append((s, ell))
    # random towers over the slots of one homogeneity, split and compared part by part
    for _ in range(args.trials):
        h = rng.choice(sorted(slots))
        f, want = RadialExpr(dk.m), {}
        for s, ell in slots[h]:
            mono = RadialExpr(dk.m)
            for g in bases[ell]:
                mono = mono + g.scale(_rand_fraction(rng, -3, 3))
            tower = fischer_tower(dctx, bases[ell][0] if mono.is_zero() else mono, ell, s)
            want[s] = tower[0]
            f = f + tower[s]
        row = {"relation": "tower decomposition recovers each part",
               "homogeneity": h, "slots": slots[h]}
        try:
            row["pass"] = tower_decompose(dctx, f) == want
        except ValueError as exc:
            row["excluded"] = str(exc)
        yield row
    # the one-step lowering constants on explicit towers
    for ell in range(args.ell_max + 1):
        tower = fischer_tower(dctx, bases[ell][0], ell, args.s_max)
        for s in range(1, args.s_max + 1):
            want = tower[s - 1].scale(fischer_constant(dctx, ell, s))
            defect = dctx.dirac(tower[s]) - want
            yield {"relation": "D x_a^s u = const x_a^{s-1} u",
                   "ell": ell, "s": s,
                   "const": fischer_constant(dctx, ell, s),
                   "pass": defect.is_zero()}
    return {"a": par.a, "b": par.b, "c": par.c,
            "image_cache": dctx.cache_info()}


@suite("laguerre-table", "psi_t coefficients with step and norm constants",
       check=_seeds_up_to("ell-max", "monogenic"),
       a=Fraction(2), b=Fraction(0), c=Fraction(0), t_max=4, ell_max=2)
def cmd_laguerre_table(args, dk):
    par = DeformParams(args.a, args.b, args.c)
    dctx = DeformedContext(dk, par)
    for ell in range(args.ell_max + 1):
        if dctx.is_singular(ell):
            yield {"ell": ell, "excluded": "singular locus"}
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
            yield row
    return {"a": par.a, "b": par.b, "c": par.c,
            "image_cache": dctx.cache_info()}


@suite("orthogonality", "damped towers are orthogonal with known norms",
       check=_all_of(_seeds_up_to("ell-max", "monogenic"), _sphere_rule),
       a=Fraction(2), b=Fraction(0), c=Fraction(0), t_max=3, ell_max=2,
       numeric=False, nr=60, ntheta=80, tol=1e-8)
def cmd_orthogonality(args, dk):
    rules = _hits_misses(rule_cache_info())
    setup = dk.setup
    par = DeformParams(args.a, args.b, args.c)
    dctx = DeformedContext(dk, par)
    towers = {}
    for ell in range(args.ell_max + 1):
        if dctx.is_singular(ell):
            yield {"ell": ell, "excluded": "singular locus"}
        else:
            towers[ell] = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
    eh = weight_exponent(dctx)
    for ell, tower in towers.items():
        for ell2, tower2 in towers.items():
            for t in range(args.t_max + 1):
                for s in range(args.t_max + 1):
                    if (ell2, s) < (ell, t):
                        continue
                    prod = tower.psi(t).bar().mul_expr(tower2.psi(s))
                    try:
                        got = inner_product_exact(dctx, prod)
                    except ValueError as exc:
                        yield {"t": t, "ell": ell, "s": s, "ell2": ell2,
                               "excluded": str(exc)}
                        continue
                    diag = t == s and ell == ell2
                    if diag:
                        nc, mg = norm_constant(dctx, ell, t), tower.monogenic
                        want = {bl: nc * comb for bl, comb in
                                sphere_inner_exact(setup, mg.bar().mul_expr(mg)).items()}
                    else:
                        want = {}
                    row = {"t": t, "ell": ell, "s": s, "ell2": ell2,
                           "exact": {bl: str(comb) for bl, comb in got.items()},
                           "pass": got == want}
                    if args.numeric:
                        try:
                            num, floor = integrate_expr(setup, prod, par.a, 2, eh,
                                                        args.nr, args.ntheta)
                        except ValueError as exc:
                            del row["pass"]
                            row["excluded"] = f"numeric part: {exc}"
                            yield row
                            continue
                        ref = np.zeros(1 << setup.m)
                        for bl, comb in got.items():
                            ref[bl] = float(comb)
                        scale = max(np.max(np.abs(ref)), 1e-30) if diag else 1.0
                        err = float(np.max(np.abs(num - ref)) / scale)
                        row["numeric_err"] = err
                        row["numeric_floor"] = float(np.max(floor) / scale)
                        # an off-diagonal zero is judged above the roundoff
                        # floor of its cancelling terms
                        bound = args.tol if diag else max(args.tol, row["numeric_floor"])
                        row["pass"] = row["pass"] and err <= bound
                    yield row
    return {"a": par.a, "b": par.b, "c": par.c, "tol": args.tol,
            "rule_cache": _since(rules, _hits_misses(rule_cache_info())),
            "image_cache": dctx.cache_info()}


@suite("transform-eigen", "transform eigenvalues on the damped towers",
       check=_all_of(_positive_a, _seeds_up_to("l-max", "monogenic"),
                     _sphere_rule),
       a=Fraction(2), b=Fraction(0), t_max=3, l_max=2, nr=100, ntheta=120,
       order=28, points=6, tol=1e-6)
def cmd_transform_eigen(args, dk):
    rules, tables = _hits_misses(rule_cache_info()), KernelTables()
    setup = dk.setup
    par = DeformParams.commuting(args.a, args.b)
    dctx = DeformedContext(dk, par)
    rng = np.random.default_rng(args.seed)
    targets = rng.uniform(0.4, 1.2, size=(args.points, setup.m))
    targets *= np.sign(rng.uniform(-1, 1, size=targets.shape))
    for ell in range(args.l_max + 1):
        if dctx.is_singular(ell):
            yield {"ell": ell, "excluded": "singular locus"}
            continue
        tower = LaguerreTower(dctx, ell, monogenic_basis(dk, ell)[0])
        for t in range(args.t_max + 1):
            start = time.perf_counter()
            psi = tower.psi(t)
            try:
                got = deformed_transform(dctx, psi, targets, args.order,
                                         args.nr, args.ntheta, tables)
            except ValueError as exc:
                yield {"t": t, "l": ell, "excluded": f"numeric part: {exc}"}
                continue
            ref = damped_values(dctx, psi, targets)
            lam, resid = measured_eigenvalue(ref, got)
            want = spectral_eigenvalue(par, ell, t)
            rel = abs(lam - want) / abs(want)
            ms = 1000 * (time.perf_counter() - start)
            yield {"t": t, "l": ell, "expected_eigenvalue": want,
                   "measured": lam, "rel_err": rel, "residual": resid,
                   "runtime_ms": round(ms, 3),
                   "pass": bool(rel <= args.tol and resid <= args.tol)}
    return {"a": par.a, "b": par.b, "c": par.c,
            "kernel": kernel_route(setup), "tol": args.tol,
            "rule_cache": _since(rules, _hits_misses(rule_cache_info())),
            "kernel_cache": _hits_misses(tables),
            "image_cache": dctx.cache_info()}


@suite("kernel-residual", "closed kernel satisfies its first-order system",
       group=False, a=Fraction(2), b=Fraction(0), m=2, samples=100, tol=1e-10)
def cmd_kernel_residual(args, _dk):
    par = DeformParams.commuting(args.a, args.b)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.samples):
        x = rng.uniform(-1.5, 1.5, size=(1, args.m))
        y = rng.uniform(-1.5, 1.5, size=(1, args.m))
        res = pde_residual(par, x, y)
        yield {"x": x[0], "y": y[0], "residual": res,
               "pass": bool(res <= args.tol)}
    return {"m": args.m, "a": par.a, "b": par.b, "c": par.c, "tol": args.tol}


@suite("a-minus2-suite", "the inverted realization, exact and through the transform",
       check=_all_of(_seeds_up_to("l-max", "harmonic"), _sphere_rule),
       degree=3, j_max=1, l_max=1, order=28, nr=60, ntheta=64, points=5, tol=1e-6)
def cmd_a_minus2_suite(args, dk):
    inputs = [(f, f.to_text()) for f in _input_set(dk.m, args.degree)]
    info = yield from _inversion_rows(dk, inputs)
    rng = np.random.default_rng(args.seed)
    targets = rng.uniform(0.5, 1.3, size=(args.points, dk.m))
    targets *= np.sign(rng.uniform(-1, 1, size=targets.shape))
    tables = KernelTables()
    for j in range(args.j_max + 1):
        for ell in range(args.l_max + 1):
            start = time.perf_counter()
            g = inversion(dk, eigenfunction(dk, j, ell,
                                            harmonic_basis(dk, ell)[0]))
            try:
                one = transform_inverted(dk, g, targets, args.order,
                                         args.nr, args.ntheta, tables)
                two = transform_inverted_direct(dk, g, targets, args.order,
                                                args.nr, args.ntheta, tables)
            except ValueError as exc:
                yield {"j": j, "l": ell, "excluded": f"numeric part: {exc}"}
                continue
            ref = inverted_damped_values(dk, g, targets)
            scale = float(np.max(np.abs(ref)))
            agree = float(np.max(np.abs(one - two))) / scale
            eig = float(np.max(np.abs(one - eigenvalue(j, ell) * ref))) / scale
            ms = 1000 * (time.perf_counter() - start)
            yield {"j": j, "l": ell, "paths_agree_err": agree,
                   "eigen_rel_err": eig, "runtime_ms": round(ms, 3),
                   "pass": agree <= args.tol and eig <= args.tol}
    return {"kernel": kernel_route(dk.setup), "tol": args.tol,
            "kernel_cache": _hits_misses(tables), "image_cache": info}


# -- the runner ---------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dunkldirac",
        description="verification suites for the deformed Dunkl Dirac family")
    sub = top.add_subparsers(dest="cmd", required=True)
    for spec in SUITES.values():
        p = sub.add_parser(spec.name, help=spec.help, allow_abbrev=False)
        if spec.group:
            _group_flags(p)
        for name, default in spec.flags.items():
            _add_flag(p, name, default)
        _common_flags(p)
    return top


def main(argv=None) -> int:
    top = _parser()
    args = top.parse_args(argv)
    spec = SUITES[args.cmd]
    try:
        setup = _build_setup(args) if spec.group else None
        _check_params(args)
        if spec.check is not None:
            spec.check(args, setup)
    except BadInput as exc:
        top.exit(2, f"dunkldirac {spec.name}: error: {exc}\n")
    rep = Reporter(spec.name, args)
    head = setup.to_config() if spec.group else {}
    dk = DunklContext(setup) if spec.group else None
    caches = _layer_caches(dk) if spec.group else None
    rows = spec.run(args, dk)
    while True:
        try:
            rep.add(next(rows))
        except StopIteration as done:
            extra = done.value
            # beside the image caches, the caches of the layers they call
            if "image_cache" in extra:
                now = _layer_caches(dk)
                extra["layer_caches"] = {name: _since(caches[name], now[name])
                                         for name in now}
            return rep.finish(**head, **extra)


if __name__ == "__main__":
    sys.exit(main())
