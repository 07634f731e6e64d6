"""Command-line entry points: exit codes, report files, input validation."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dunkldirac.cli import SUITES, main, rational


def read_summary(out_dir, name):
    with open(out_dir / f"{name}-summary.json") as fh:
        return json.load(fh)


def read_rows(out_dir, name):
    rows = []
    with open(out_dir / f"{name}.jsonl") as fh:
        for line in fh:
            rows.append(json.loads(line))
    return rows


# -- argument parsing ---------------------------------------------------------

def test_rational_type_accepts_fractions_and_ints():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    assert rational("-5/7") == Fraction(-5, 7)


def test_rational_type_rejects_floats():
    import argparse
    with pytest.raises(argparse.ArgumentTypeError, match="exact rational"):
        rational("0.5")
    with pytest.raises(argparse.ArgumentTypeError):
        rational("1e-3")


def test_float_argument_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify-osp", "--a", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == 2


# -- passing runs ----------------------------------------------------------

def test_verify_osp_writes_reports_and_passes(tmp_path):
    # negative rationals need the = form, or argparse reads them as flags
    code = main(["verify-osp", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
                 "--a", "4", "--b", "1/2", "--c=-1/2",
                 "--degree", "2", "--out", str(tmp_path)])
    assert code == 0
    summary = read_summary(tmp_path, "verify-osp")
    assert summary["all_pass"] is True
    assert summary["failed"] == 0
    rows = read_rows(tmp_path, "verify-osp")
    assert len(rows) == summary["checks"]
    assert summary["rows"].endswith("verify-osp.jsonl")
    assert all(row["pass"] for row in rows)


def test_verify_osp_summary_records_image_cache_hits(tmp_path):
    """D's cache, once the summary's image_cache, is the DunklContext's memo
    per monomial, reported among the layer caches as dunkl.dirac_monomial."""
    assert main(["verify-osp", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "verify-osp")
    assert "image_cache" not in summary
    cache = summary["layer_caches"]["dunkl.dirac_monomial"]
    assert cache["hits"] > 0 and cache["misses"] > 0


def test_verify_osp_image_cache_counts_are_pinned(tmp_path):
    """Eight applications of D per scalar monomial, none merged away and
    none per blade (the blades come from right multiplication), make 783
    lookups of D's memo in a degree-2 run on z2^3 at the three seeded
    triples.  The memo is keyed by monomial alone, so its 16 misses are the
    monomials D meets, shared by the three triples."""
    assert main(["verify-osp", "--family", "z2", "--m", "3", "--k", "1/2",
                 "--degree", "2", "--out", str(tmp_path)]) == 0
    assert read_summary(tmp_path, "verify-osp")["layer_caches"]["dunkl.dirac_monomial"] == {
        "hits": 767, "misses": 16}


# the group suites that apply D or D_k, so read its memo per monomial
DIRAC_SUITES = {"verify-osp", "fischer", "laguerre-table", "orthogonality",
                "transform-eigen", "verify-kelvin", "a-minus2-suite", "basis"}


GROUP_SUITE_RUNS = [
    ["fischer", "--ell-max", "1", "--s-max", "2", "--degree", "2", "--trials", "1"],
    ["laguerre-table", "--t-max", "2", "--ell-max", "1"],
    ["orthogonality", "--t-max", "1", "--ell-max", "1"],
    ["verify-kelvin", "--degree", "1", "--trials", "1"],
    ["transform-eigen", "--t-max", "1", "--l-max", "0", "--nr", "20",
     "--ntheta", "16", "--tol", "1e-3"],
    ["a-minus2-suite", "--degree", "1", "--j-max", "0", "--l-max", "0",
     "--nr", "20", "--ntheta", "16", "--tol", "1e-3"],
    ["verify-osp", "--degree", "1", "--trials", "1"],
    ["verify-basicprops", "--degree", "1"],
    ["basis", "--ell-max", "1"],
]


@pytest.mark.parametrize("argv", GROUP_SUITE_RUNS)
def test_suites_applying_d_or_x_a_record_image_cache(tmp_path, argv):
    """Every group suite writes the caches of the exact layer; those that
    apply D or D_k count lookups of D's memo, dunkl.dirac_monomial, which
    replaced the per-context image_cache."""
    assert {run[0] for run in GROUP_SUITE_RUNS} == {
        name for name, spec in SUITES.items() if spec.group}
    assert main(argv + ["--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, argv[0])
    assert "image_cache" not in summary
    # the caches of the layers below, named as the bench tracer names them
    layers = summary["layer_caches"]
    assert set(layers) == {"dunkl.dunkl_monomial", "dunkl.dirac_monomial",
                           "reflection.reflect_monomial", "clifford.blade_product",
                           "poly.r_squared_power", "measure.unit_integral", "kelvin.power"}
    assert all(set(counts) == {"hits", "misses"} for counts in layers.values())
    assert all(n >= 0 for counts in layers.values() for n in counts.values())
    assert sum(layers["dunkl.dunkl_monomial"].values()) > 0
    assert (sum(layers["dunkl.dirac_monomial"].values()) > 0) == (argv[0] in DIRAC_SUITES)
    # the exact integrals reuse their unit integrals, P and Q their class tables
    memo = {"orthogonality": "measure.unit_integral", "verify-kelvin": "kelvin.power"}
    if argv[0] in memo:
        assert layers[memo[argv[0]]]["hits"] > 0


def test_verify_kelvin_builds_no_unit_images(tmp_path):
    """T_i and D_i apply directly, and D_k and the D of the inversion rows
    read the memo per monomial, which keeps no image of a unit term
    r^s x^beta e_B: on symmetric(3) at degree 1 the four scalar monomials,
    each applied once by D_k (inverted) and once by D, make four misses."""
    assert main(["verify-kelvin", "--family", "symmetric", "--m", "3", "--k", "1/2",
                 "--degree", "1", "--trials", "1", "--out", str(tmp_path)]) == 0
    relations = {row["relation"] for row in read_rows(tmp_path, "verify-kelvin")}
    assert {"(a/2)^{(b-1)/2} Q T_i P = D_i", "I D I = D at (-2, 2 - mu, -2)"} <= relations
    layers = read_summary(tmp_path, "verify-kelvin")["layer_caches"]
    assert layers["dunkl.dirac_monomial"] == {"hits": 4, "misses": 4}


def test_layer_caches_are_read_through_a_profiler_wrapper(tmp_path, monkeypatch):
    """A profiler that rebinds the cached functions to plain wrappers (as
    perfbench's tracer does) leaves the counters readable."""
    import functools

    import dunkldirac.cli as cli

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)
        return wrapper

    for name in ("reflect_monomial", "blade_product", "r_squared_power"):
        monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    assert not hasattr(cli.reflect_monomial, "cache_info")
    assert main(["verify-osp", "--degree", "1", "--trials", "1",
                 "--out", str(tmp_path)]) == 0
    layers = read_summary(tmp_path, "verify-osp")["layer_caches"]
    assert layers["clifford.blade_product"]["hits"] > 0


def test_verify_factorization_reports_the_commuting_line(tmp_path):
    """At the default --ms 2 3 the commutator rows cover triples on the line
    c = 2/a - 1 and, at m = 3, off it: (6, 1, 0) and (-6, 0, -2)."""
    assert main(["verify-factorization", "--out", str(tmp_path)]) == 0
    rows = [row for row in read_rows(tmp_path, "verify-factorization")
            if row["relation"] == "[D_i, D_j] = 0 iff c = 2/a - 1"]
    off = [(row["m"], row["a"], row["b"], row["c"]) for row in rows
           if Fraction(row["c"]) != 2 / Fraction(row["a"]) - 1]
    assert off == [(3, "6", "1", "0"), (3, "-6", "0", "-2")]
    assert len(rows) > len(off) and {row["m"] for row in rows} == {2, 3}
    assert all(row["pass"] is True for row in rows)


def test_verify_factorization_passes(tmp_path):
    code = main(["verify-factorization", "--ms", "2", "--degree", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = read_summary(tmp_path, "verify-factorization")
    assert summary["all_pass"] is True
    # the deliberately perturbed triple must appear as a must-fail check
    rows = read_rows(tmp_path, "verify-factorization")
    assert any("perturb" in str(row).lower() for row in rows)


def test_verify_basicprops_passes(tmp_path):
    code = main(["verify-basicprops", "--family", "symmetric", "--m", "3",
                 "--k", "1/2", "--degree", "2", "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "verify-basicprops")["all_pass"] is True


def test_verify_kelvin_passes(tmp_path):
    code = main(["verify-kelvin", "--m", "2", "--k", "1/2,3/2",
                 "--a", "4", "--b", "1/2", "--degree", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "verify-kelvin")["all_pass"] is True


def test_basis_dump(tmp_path):
    code = main(["basis", "--kind", "monogenic", "--m", "2", "--k", "1/2,1/2",
                 "--ell-max", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path, "basis")
    assert all(row["pass"] for row in rows)
    assert {row["ell"] for row in rows} == {0, 1, 2}


def test_fischer_roundtrip(tmp_path):
    code = main(["fischer", "--m", "2", "--k", "1/2,3/2", "--a", "2",
                 "--b", "1/3", "--c", "1/2", "--degree", "3", "--trials", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "fischer")["all_pass"] is True


def test_laguerre_table(tmp_path):
    code = main(["laguerre-table", "--m", "2", "--k", "1/2,1/2",
                 "--a", "2", "--b", "0", "--c", "0",
                 "--t-max", "3", "--ell-max", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path, "laguerre-table")
    assert all("coefficients" in row for row in rows if row.get("pass"))


def test_orthogonality_exact(tmp_path):
    code = main(["orthogonality", "--m", "2", "--k", "1/2,3/2",
                 "--a", "2", "--b", "0", "--c", "0",
                 "--t-max", "2", "--ell-max", "1", "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "orthogonality")["all_pass"] is True


def test_orthogonality_numeric_reuses_cached_rules(tmp_path):
    """Pairs whose products fall in one residue class share a quadrature rule."""
    code = main(["orthogonality", "--m", "2", "--k", "1/2,3/2",
                 "--a", "4/3", "--b", "1/3", "--c", "1/2", "--t-max", "2",
                 "--ell-max", "1", "--numeric", "--nr", "20", "--ntheta", "16",
                 "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "orthogonality")["rule_cache"]["hits"] > 0


ORTHO_NUMERIC = ["orthogonality", "--m", "2", "--k", "1/2,3/2", "--a", "4/3",
                 "--b", "1/3", "--c", "1/2", "--t-max", "4", "--ell-max", "2",
                 "--numeric"]


def test_orthogonality_numeric_rows_fail_above_their_roundoff_floor(tmp_path, monkeypatch):
    """Off-diagonal rows pass up to max(tol, numeric_floor), and a value
    doctored to three times that bound fails its row."""
    assert main(ORTHO_NUMERIC + ["--out", str(tmp_path / "clean")]) == 0
    rows = read_rows(tmp_path / "clean", "orthogonality")
    off = [row for row in rows if (row["t"], row["ell"]) != (row["s"], row["ell2"])]
    assert all(row["numeric_err"] <= max(1e-8, row["numeric_floor"]) for row in off)
    assert any(row["numeric_floor"] > 1e-8 for row in off)

    import dunkldirac.cli as cli
    real = cli.integrate_expr

    def doctored(*args, **kwargs):
        num, floor = real(*args, **kwargs)
        return num + 3 * max(1e-8, float(floor.max())), floor

    monkeypatch.setattr(cli, "integrate_expr", doctored)
    assert main(ORTHO_NUMERIC + ["--out", str(tmp_path / "bad")]) == 1
    bad = read_rows(tmp_path / "bad", "orthogonality")
    off = [row for row in bad if (row["t"], row["ell"]) != (row["s"], row["ell2"])]
    assert off and all(row["pass"] is False for row in off)
    assert all(row["numeric_err"] > max(1e-8, row["numeric_floor"]) for row in off)


def test_transform_eigen_reuses_the_kernel_tables_of_repeated_rules(tmp_path):
    """The plane-wave route's 12 transforms on z2^3 meet their rules in the
    order -2, -4/3, -2, -4/3 x 6, -2/3, -4/3, -2/3 (by folded exponent); the
    memo keeps the two most recently built tables, so each rule's table is
    built once."""
    code = main(["transform-eigen", "--family", "z2", "--m", "3", "--k", "0",
                 "--a", "2/3", "--t-max", "3", "--l-max", "2", "--nr", "60",
                 "--ntheta", "32", "--tol", "1e-8", "--seed", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = read_summary(tmp_path, "transform-eigen")
    assert summary["kernel_cache"] == {"hits": 9, "misses": 3, "moments": 14}


def test_transform_eigen_counts_the_angular_moments_it_builds(tmp_path):
    """On z2^2 the rungs (t, ell) = (0, 0), (1, 0), (0, 1), (1, 1) fold onto
    the rules 0, 2, 2, 2 and meet the monomials {1}, {x1, x2}, {x1, x2} and
    {1, x1 x2, x1^2}: two tables, and a moment column per monomial new to its
    table, 1 + 2 + 0 + 3."""
    assert main(["transform-eigen", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
                 "--t-max", "1", "--l-max", "1", "--nr", "20", "--ntheta", "16",
                 "--points", "3", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "transform-eigen")
    assert summary["kernel_cache"] == {"hits": 2, "misses": 2, "moments": 6}


TRANSFORM_SERIES_GRID = ["--nr", "60", "--ntheta", "64", "--tol", "1e-8", "--seed", "1"]


@pytest.mark.parametrize("argv, counts", [
    (["transform-eigen", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
      "--t-max", "2", "--l-max", "1"], {"hits": 4, "misses": 2, "moments": 6}),
    (["transform-eigen", "--family", "hyperoctahedral", "--m", "2", "--k", "1,2",
      "--t-max", "1", "--l-max", "1"], {"hits": 2, "misses": 2, "moments": 6}),
    (["a-minus2-suite", "--family", "z2", "--m", "2", "--k", "1/2",
      "--j-max", "0", "--l-max", "1"], {"hits": 2, "misses": 2, "moments": 2}),
])
def test_bessel_series_and_inverted_routes_reuse_kernel_tables(tmp_path, argv, counts):
    """The Bessel (z2), series (B2) and a = -2 runs of the transform-series
    benchmark build each repeated (rule, targets) kernel table once."""
    assert main(argv + TRANSFORM_SERIES_GRID + ["--out", str(tmp_path)]) == 0
    assert read_summary(tmp_path, argv[0])["kernel_cache"] == counts


def test_transform_eigen_closed_route(tmp_path):
    code = main(["transform-eigen", "--m", "2", "--k", "0,0",
                 "--a", "2", "--b", "0", "--t-max", "1", "--l-max", "1",
                 "--points", "3", "--nr", "60", "--ntheta", "60",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = read_rows(tmp_path, "transform-eigen")
    for row in rows:
        assert row["pass"]
        assert row["rel_err"] < 1e-6
        assert "runtime_ms" in row and "expected_eigenvalue" in row


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transform_eigen_with_multiplicities_summing_to_zero(tmp_path):
    """gamma = 0 with nonzero multiplicities is a weighted transform: the
    Bessel kernel against the weighted rule, not the plane wave."""
    code = main(["transform-eigen", "--family", "z2", "--m", "2", "--k", "1/3,-1/3",
                 "--t-max", "1", "--l-max", "1", "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "transform-eigen")["kernel"] == "bessel"


def test_a_minus2_suite(tmp_path):
    code = main(["a-minus2-suite", "--m", "2", "--k", "1/2,1/2",
                 "--degree", "2", "--j-max", "0", "--l-max", "0",
                 "--points", "3", "--nr", "50", "--ntheta", "48",
                 "--order", "24", "--out", str(tmp_path)])
    assert code == 0
    assert read_summary(tmp_path, "a-minus2-suite")["all_pass"] is True
    transform_rows = [row for row in read_rows(tmp_path, "a-minus2-suite")
                      if "paths_agree_err" in row]
    assert transform_rows and all(row["runtime_ms"] > 0 for row in transform_rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_negative_multiplicity_off_the_axes_is_excluded_not_failed(tmp_path):
    """The plain sphere rule cannot integrate |<alpha, x>|^{2k} at k < 0:
    the numeric rows are excluded with the reason, not judged on a rule
    that divides by zero on the mirrors."""
    code = main(["transform-eigen", "--family", "symmetric", "--m", "2", "--k=-1/4",
                 "--t-max", "1", "--l-max", "0", "--nr", "20", "--ntheta", "16",
                 "--out", str(tmp_path)])
    assert code == 1
    rows = read_rows(tmp_path, "transform-eigen")
    assert len(rows) == 2
    assert all(row["excluded"].startswith("numeric part: ") for row in rows)
    assert not any(row.get("pass") is False for row in rows)


_EIGEN_SMALL = ["--t-max", "0", "--l-max", "0", "--points", "2",
                "--nr", "30", "--ntheta", "30"]


@pytest.mark.parametrize("argv, kernel", [
    (["transform-eigen", "--k", "0,0", *_EIGEN_SMALL], "plane"),
    (["transform-eigen", "--k", "1/2,3/2", *_EIGEN_SMALL], "bessel"),
    (["transform-eigen", "--family", "dihedral", "--k", "1/2,3/2", *_EIGEN_SMALL],
     "bessel"),
    (["transform-eigen", "--family", "hyperoctahedral", "--k", "1,2",
      "--order", "8", *_EIGEN_SMALL], "series"),
    (["a-minus2-suite", "--k", "1/2", "--degree", "0", "--j-max", "0",
      "--l-max", "0", "--points", "2", "--nr", "30", "--ntheta", "32"], "bessel"),
])
def test_summary_records_the_kernel_route(tmp_path, argv, kernel):
    main(argv + ["--out", str(tmp_path)])
    assert read_summary(tmp_path, argv[0])["kernel"] == kernel


def test_kernel_residual_passes_at_default_params(tmp_path):
    code = main(["kernel-residual", "--samples", "40", "--seed", "7",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = read_summary(tmp_path, "kernel-residual")
    assert summary["all_pass"] is True


# -- failing runs ------------------------------------------------------------

def test_kernel_residual_fails_at_impossible_tolerance(tmp_path):
    """a = 4 keeps a real roundoff floor, so 1e-30 must fail with exit 1."""
    code = main(["kernel-residual", "--a", "4", "--b", "1/2",
                 "--samples", "40", "--tol", "1e-30", "--out", str(tmp_path)])
    assert code == 1
    summary = read_summary(tmp_path, "kernel-residual")
    assert summary["all_pass"] is False
    assert summary["failed"] > 0


def test_numpy_verdicts_are_counted_as_failures(tmp_path):
    """transform-eigen compares numpy floats; every failing row must be a real
    False that the summary counts, and the run must exit 1."""
    code = main(["transform-eigen", "--m", "3", "--k", "0", "--t-max", "1",
                 "--l-max", "1", "--points", "2", "--nr", "20", "--ntheta", "12",
                 "--out", str(tmp_path)])
    rows = read_rows(tmp_path, "transform-eigen")
    assert all(isinstance(row["pass"], bool) for row in rows if "pass" in row)
    failing = sum(1 for row in rows if row.get("pass") is False)
    assert failing > 0
    assert read_summary(tmp_path, "transform-eigen")["failed"] == failing
    assert code == 1


def test_reporter_rejects_a_non_bool_verdict(tmp_path):
    import argparse
    import numpy as np
    from dunkldirac.cli import Reporter
    rep = Reporter("probe", argparse.Namespace(out=str(tmp_path), format="json"))
    with pytest.raises(TypeError, match="bool"):
        rep.add({"pass": np.False_})
    rep.finish()



def _jsonable_reference(val):
    """The recursive encoding the reports were written with before the
    json.dumps hook, kept as the reference the hook must reproduce."""
    import numpy as np
    if type(val) in (str, bool, int, float) or val is None:
        return val
    if isinstance(val, dict):
        return {str(k): _jsonable_reference(v) for k, v in val.items()}
    if isinstance(val, Fraction):
        return str(val)
    if isinstance(val, complex):
        return [val.real, val.imag]
    if isinstance(val, (np.floating, np.integer)):
        return val.item()
    if isinstance(val, np.ndarray):
        return [_jsonable_reference(v) for v in val.tolist()]
    if isinstance(val, (list, tuple)):
        return [_jsonable_reference(v) for v in val]
    return str(val)


def test_report_encoding_matches_the_recursive_reference():
    import numpy as np
    from dunkldirac.cli import _encode
    from dunkldirac.scalars import ExactScalar
    values = [
        Fraction(-3, 7), 1.5 - 0.25j, np.float64(0.1), np.float32(0.1), np.int64(-4),
        np.bool_(True), np.array([0.5, -1.25]), np.array([[1, 2], [3, 4]]),
        np.array([1 + 2j, -0.5j]), (1, Fraction(1, 2), (2, 3)), [None, True, 2.5, "x"],
        {1: Fraction(2, 3), "s": {0: [np.float64(1e-17)]}}, float("nan"), float("inf"),
        ExactScalar.power(Fraction(3, 2), Fraction(1, 3), 2), {1, 2}, 10 ** 30,
    ]
    for val in values:
        want = json.dumps(_jsonable_reference(val))
        assert json.dumps(val, default=_encode) == want, val
        assert json.dumps(val, indent=2, default=_encode) == json.dumps(
            _jsonable_reference(val), indent=2)

# -- config file mode -----------------------------------------------------------

def test_config_file_builds_the_group(tmp_path):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps(
        {"family": "z2^m", "m": 2, "k": ["1/2", "3/2"]}))
    code = main(["verify-basicprops", "--config", str(cfg),
                 "--degree", "2", "--out", str(tmp_path)])
    assert code == 0


def test_group_summary_head_is_the_setup_config(tmp_path):
    from dunkldirac.reflection import from_config, hyperoctahedral
    assert main(["verify-basicprops", "--family", "hyperoctahedral", "--m", "2",
                 "--k", "1/3,1", "--degree", "1", "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "verify-basicprops")
    head = {key: summary[key] for key in ("family", "m", "k")}
    assert from_config(head) == hyperoctahedral(2, Fraction(1, 3), Fraction(1))


def test_dihedral_config_file_takes_its_order_from_m(tmp_path):
    cfg = tmp_path / "i2.json"
    cfg.write_text(json.dumps({"family": "dihedral", "m": 4, "k": ["1/2", "1/3"]}))
    assert main(["verify-basicprops", "--config", str(cfg), "--degree", "1",
                 "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "verify-basicprops")
    assert (summary["family"], summary["m"], summary["k"]) == (
        "hyperoctahedral", 2, ["1/2", "1/3"])


def test_config_file_with_a_non_string_family_exits_2(tmp_path, capsys):
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"family": 3, "m": 2, "k": "1/2"}))
    with pytest.raises(SystemExit) as exc:
        main(["verify-basicprops", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "unknown family 3" in err


@pytest.mark.parametrize("cfg, word", [
    ({"family": "z2", "m": 2.7, "k": "1/2"}, "m = 2.7 is a float"),
    ({"family": "z2", "m": 2, "k": 0.1}, "k = 0.1 is a float"),
    ({"family": "z2", "m": 2, "k": [0.5, "1/3"]}, "k = 0.5 is a float"),
    ({"family": "z2", "m": "5/2", "k": 1}, "not an integer"),
    ({"family": "z2", "m": 2, "k": True}, "k = True is a bool"),
    ({"family": "z2", "m": 2, "k": "1/0"}, "k = '1/0' is not a rational"),
    ({"family": "z2", "m": 2, "k": None}, "k = None is not a rational"),
])
def test_config_file_with_an_inexact_value_exits_2(tmp_path, capsys, cfg, word):
    """No float reaches the exact layer through a config file, as none does
    through --m and --k, and a value that is no rational is named."""
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["verify-basicprops", "--config", str(path), "--degree", "1",
              "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "bad config" in err and word in err


def test_config_file_takes_ints_and_rational_strings(tmp_path):
    path = tmp_path / "exact.json"
    path.write_text(json.dumps({"family": "z2", "m": "2", "k": [1, "1/3"]}))
    assert main(["verify-basicprops", "--config", str(path), "--degree", "1",
                 "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, "verify-basicprops")
    assert (summary["m"], summary["k"]) == (2, ["1", "1/3"])


def test_config_file_of_rank_zero_exits_2(tmp_path, capsys):
    cfg = tmp_path / "rank0.json"
    cfg.write_text(json.dumps({"family": "z2^m", "m": 0, "k": []}))
    with pytest.raises(SystemExit) as exc:
        main(["verify-osp", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip()
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "bad config" in err and "at least 1" in err


def test_orthogonality_without_numeric_runs_at_rank_four(tmp_path):
    """Only the quadrature cross-check needs the sphere rule's m <= 3."""
    assert main(["orthogonality", "--m", "4", "--t-max", "1", "--ell-max", "1",
                 "--out", str(tmp_path)]) == 0


def test_missing_config_file_is_an_actionable_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-basicprops", "--config", str(tmp_path / "absent.json"),
              "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "not found" in err


def test_bad_config_file_is_an_actionable_error(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["verify-basicprops", "--config", str(cfg),
              "--out", str(tmp_path)])
    err = capsys.readouterr().err.strip()
    assert exc.value.code == 2 and len(err.splitlines()) == 1
    assert "bad config" in err


def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["verify-basicprops", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "bad config" in capsys.readouterr().err


# -- output formats ---------------------------------------------------------------

def test_csv_format(tmp_path):
    code = main(["verify-basicprops", "--m", "2", "--k", "1/2,1/2",
                 "--degree", "2", "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "verify-basicprops.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert "pass" in rows[0]


def test_jsonl_rewritten_on_each_run(tmp_path):
    """A second run into the same --out replaces the rows, so the JSONL and
    the summary describe the same run."""
    args = ["verify-basicprops", "--m", "2", "--k", "0,0",
            "--degree", "1", "--out", str(tmp_path)]
    main(args)
    main(args)
    rows = read_rows(tmp_path, "verify-basicprops")
    assert rows
    assert len(rows) == read_summary(tmp_path, "verify-basicprops")["checks"]


def test_out_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("DUNKLDIRAC_OUT", str(tmp_path))
    code = main(["verify-basicprops", "--m", "2", "--k", "0,0",
                 "--degree", "1"])
    assert code == 0
    assert (tmp_path / "verify-basicprops-summary.json").exists()


def test_seed_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        out.mkdir()
        main(["verify-osp", "--m", "2", "--k", "1/2,1/2", "--seed", "11",
              "--trials", "2", "--degree", "1", "--out", str(out)])
    rows1 = read_rows(out1, "verify-osp")
    rows2 = read_rows(out2, "verify-osp")
    assert rows1 == rows2


# -- verdicts: excluded rows and empty runs --------------------------------------

def test_reporter_counts_excluded_rows(tmp_path, capsys):
    import argparse
    from dunkldirac.cli import Reporter
    rep = Reporter("probe", argparse.Namespace(out=str(tmp_path), format="json"))
    rep.add({"pass": True})
    rep.add({"excluded": "singular locus"})
    assert rep.finish() == 1
    summary = read_summary(tmp_path, "probe")
    assert (summary["checks"], summary["failed"], summary["excluded"]) == (2, 0, 1)
    assert summary["all_pass"] is False
    assert "1 excluded" in capsys.readouterr().out


def test_a_run_without_rows_is_not_green(tmp_path):
    import argparse
    from dunkldirac.cli import Reporter
    rep = Reporter("probe", argparse.Namespace(out=str(tmp_path), format="json"))
    assert rep.finish() == 1
    assert read_summary(tmp_path, "probe")["all_pass"] is False


def test_singular_degrees_are_excluded_rows(tmp_path, capsys):
    """At a = -2 both degrees are on the singular locus: no pair can be checked,
    so the run must say so and fail instead of printing '0 checks, ok'."""
    code = main(["orthogonality", "--a=-2", "--m", "2", "--k", "1/2,3/2",
                 "--t-max", "1", "--ell-max", "1", "--out", str(tmp_path)])
    assert code == 1
    rows = read_rows(tmp_path, "orthogonality")
    assert rows == [{"ell": 0, "excluded": "singular locus"},
                    {"ell": 1, "excluded": "singular locus"}]
    summary = read_summary(tmp_path, "orthogonality")
    assert (summary["checks"], summary["excluded"], summary["all_pass"]) == (2, 2, False)
    assert "2 excluded" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["transform-eigen", "--t-max", "0", "--l-max", "0", "--nr", "10"],
    ["a-minus2-suite", "--k", "0", "--degree", "0", "--j-max", "0", "--l-max", "0",
     "--points", "1", "--order", "6", "--nr", "10"],
    ["a-minus2-suite", "--family", "symmetric", "--k", "1/2", "--degree", "0",
     "--j-max", "0", "--l-max", "0", "--points", "1", "--order", "6", "--nr", "10"],
    ["orthogonality", "--numeric", "--k", "0", "--t-max", "0", "--ell-max", "0",
     "--nr", "10"],
])
def test_an_empty_angular_rule_is_an_excluded_row(tmp_path, argv):
    """--ntheta 0 at m = 2 on the plain sphere rule (k = 0 or roots off the
    axes) excludes the numeric row, as --nr 0 does, instead of dividing by
    zero."""
    assert main(argv + ["--ntheta", "0", "--out", str(tmp_path)]) == 1
    excluded = [row["excluded"] for row in read_rows(tmp_path, argv[0]) if "excluded" in row]
    assert excluded == ["numeric part: n_ang must be a positive integer."]


def test_fischer_decomposes_sampled_towers(tmp_path):
    """The sampled inputs are genuine towers: every trial row carries a verdict
    (none excluded) and compares each recovered part with the sampled one."""
    code = main(["fischer", "--family", "z2", "--m", "3", "--k", "1/2",
                 "--a", "4/3", "--b", "1/3", "--c", "1/2", "--out", str(tmp_path)])
    assert code == 0
    summary = read_summary(tmp_path, "fischer")
    assert summary["excluded"] == 0 and summary["all_pass"] is True
    trials = [row for row in read_rows(tmp_path, "fischer")
              if row["relation"] == "tower decomposition recovers each part"]
    assert len(trials) == 5
    assert all(row["pass"] is True for row in trials)


# -- bad input ----------------------------------------------------------------------

@pytest.mark.parametrize("argv, flag", [
    (["verify-kelvin", "--a=-2"], "--a"),
    (["fischer", "--m", "1"], "--m"),
    (["laguerre-table", "--m", "1"], "--m"),
    (["orthogonality", "--c=-1"], "--c"),
    (["transform-eigen", "--seed=-1"], "--seed"),
    (["transform-eigen", "--a=-2"], "--a"),
    (["verify-osp", "--m", "0", "--a", "2"], "--m"),
    (["verify-factorization", "--ms", "0"], "--ms"),
    (["kernel-residual", "--m", "0"], "--m"),
    (["transform-eigen", "--m", "4"], "--m"),
    (["a-minus2-suite", "--m", "4"], "--m"),
    (["orthogonality", "--m", "4", "--numeric"], "--m"),
    (["verify-basicprops", "--family", "symmetric", "--m", "2", "--k", "1/2,1/3"], "--k"),
    (["verify-basicprops", "--family", "dihedral", "--m", "4", "--k", "1/2,1/3,5"], "--k"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and flag in err
    assert not list(tmp_path.iterdir())



def _exits_2_naming(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and flag in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("suite", ["transform-eigen", "a-minus2-suite"])
def test_points_below_one_exits_2(tmp_path, capsys, suite):
    """No target point leaves nothing to measure: rejected before a report."""
    _exits_2_naming(tmp_path, capsys, [suite, "--points", "0"], "--points")


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("suite", ["orthogonality --numeric", "transform-eigen",
                                   "a-minus2-suite", "kernel-residual"])
def test_tol_that_is_not_positive_and_finite_exits_2(tmp_path, capsys, suite, tol):
    """A tolerance no error can meet, or any error meets, is rejected."""
    _exits_2_naming(tmp_path, capsys, suite.split() + [f"--tol={tol}"], "--tol")

def test_dihedral_of_order_one_runs_and_order_zero_exits_2(tmp_path, capsys):
    assert main(["verify-basicprops", "--family", "dihedral", "--m", "1",
                 "--k", "1/2", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify-basicprops", "--family", "dihedral", "--m", "0",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, degree, kind, flag", [
    (["basis", "--ell-max", "1"], 1, "monogenic", "--ell-max"),
    (["fischer"], 1, "monogenic", "--ell-max"),
    (["fischer", "--ell-max", "0", "--degree", "3"], 1, "monogenic", "--degree"),
    (["laguerre-table"], 1, "monogenic", "--ell-max"),
    (["orthogonality"], 1, "monogenic", "--ell-max"),
    (["transform-eigen"], 1, "monogenic", "--l-max"),
    (["a-minus2-suite", "--l-max", "2"], 2, "harmonic", "--l-max"),
])
def test_singular_projection_exits_2_naming_the_degree(tmp_path, capsys, argv, degree,
                                                       kind, flag):
    """On z2^2 at k = -1/2, gamma + m/2 = 0: the degree-1 monogenic and the
    degree-2 harmonic projections divide by zero, so every suite that would
    build those bases rejects the setup in one line before any report."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--family", "z2", "--m", "2", "--k=-1/2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"dunkldirac {argv[0]}: error: gamma + m/2 = 0: the degree-{degree} {kind} "
        f"projection divides by zero; lower {flag} below {degree}"]
    assert not list(tmp_path.iterdir())


BOUNDARY_SIZES = {
    "verify-osp": ["--degree", "1", "--trials", "1"],
    "fischer": ["--degree", "1", "--trials", "1", "--ell-max", "0", "--s-max", "1"],
    "laguerre-table": ["--t-max", "1", "--ell-max", "0"],
    "orthogonality": ["--t-max", "1", "--ell-max", "0"],
    "orthogonality --numeric": ["--t-max", "1", "--ell-max", "0", "--numeric",
                                "--nr", "20", "--ntheta", "16"],
    "transform-eigen": ["--t-max", "1", "--l-max", "0", "--nr", "20", "--ntheta", "16"],
    "verify-kelvin": ["--degree", "1", "--trials", "1"],
    "a-minus2-suite": ["--degree", "1", "--j-max", "0", "--l-max", "0", "--order", "6",
                       "--points", "1", "--nr", "20", "--ntheta", "16"],
    "basis": ["--ell-max", "1"],
    "basis --gram": ["--ell-max", "1", "--gram"],
    "kernel-residual": ["--samples", "3"],
}
boundary_rationals = st.one_of(st.sampled_from([0, -1, -2, 1, 2]).map(Fraction),
                               st.fractions(-6, 6, max_denominator=3))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(BOUNDARY_SIZES)),
       family=st.sampled_from(["z2", "symmetric", "hyperoctahedral", "dihedral"]),
       m=st.sampled_from([1, 2]),
       k=st.lists(st.sampled_from(["0", "1/2", "1/3", "-1/2"]), min_size=1,
                  max_size=3).map(",".join),
       a=boundary_rationals, b=boundary_rationals, c=boundary_rationals)
@example(name="orthogonality", family="z2", m=2, k="0", a=Fraction(-2), b=Fraction(0),
         c=Fraction(-2))
@example(name="orthogonality --numeric", family="z2", m=1, k="1/2", a=Fraction(1),
         b=Fraction(1), c=Fraction(-4, 3))
@example(name="laguerre-table", family="z2", m=2, k="0", a=Fraction(-3),
         b=Fraction(5, 3), c=Fraction(-4, 3))
# singular or divergent multiplicities: the kernel series has no solution,
# the radial rule diverges at the origin, the circle rule's Jacobi exponent
# leaves (-1, oo); and exact sphere integrals off the axes
@example(name="transform-eigen", family="symmetric", m=2, k="-1/2", a=Fraction(2),
         b=Fraction(0), c=Fraction(0))
@example(name="a-minus2-suite", family="hyperoctahedral", m=2, k="-1/2,1/3",
         a=Fraction(2), b=Fraction(0), c=Fraction(0))
@example(name="a-minus2-suite", family="dihedral", m=2, k="-1/2", a=Fraction(2),
         b=Fraction(0), c=Fraction(0))
@example(name="orthogonality --numeric", family="z2", m=2, k="-1/2,1/3",
         a=Fraction(2), b=Fraction(0), c=Fraction(0))
@example(name="basis --gram", family="symmetric", m=3, k="1/2", a=Fraction(2),
         b=Fraction(0), c=Fraction(0))
# a pole of the Fischer projection: degree-1 monogenics at gamma + m/2 = 0
@example(name="basis", family="z2", m=2, k="-1/2", a=Fraction(2), b=Fraction(0),
         c=Fraction(0))
def test_boundary_inputs_never_raise(capsys, name, family, m, k, a, b, c):
    """Over every family, a <= 0, c = -1, the singular locus and rank 1, a
    suite finishes (exit 0 or 1) or rejects its input in one line (exit 2);
    at a <= 0 no orthogonality row passes, since no damped integral converges
    there.  Each suite gets only the flags it has."""
    suite = name.split()[0]
    spec = SUITES[suite]
    argv = [suite, *BOUNDARY_SIZES[name], "--m", str(m)]
    if spec.group:
        argv += ["--family", family, f"--k={k}"]
    argv += [f"--{flag}={value}" for flag, value in (("a", a), ("b", b), ("c", c))
             if flag in spec.flags]
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as out:
        try:
            code = main(argv + ["--out", out])
        except SystemExit as exc:
            assert exc.code == 2
            assert len(capsys.readouterr().err.strip().splitlines()) == 1
            return
        assert code in (0, 1)
        if suite == "orthogonality" and a <= 0:
            rows = read_rows(Path(out), suite)
            assert rows and not any(row.get("pass") for row in rows)


@pytest.mark.parametrize("argv, flag", [
    (["transform-eigen", "--a=-2", "--c=1"], "--c=1"),
    (["verify-osp", "--deg", "1"], "--deg"),
])
def test_flags_are_not_read_as_abbreviations(tmp_path, capsys, argv, flag):
    """A flag the suite lacks is rejected by name, not taken as a prefix of
    one it has (``--c`` of ``--config``, ``--deg`` of ``--degree``)."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "config" not in err
    assert not list(tmp_path.iterdir())


# -- the registry -----------------------------------------------------------------

SMALL = {
    "verify-osp": ["--degree", "1", "--trials", "1"],
    "verify-factorization": ["--ms", "2", "--degree", "1"],
    "verify-basicprops": ["--degree", "1"],
    "verify-kelvin": ["--degree", "1", "--trials", "1"],
    "basis": ["--ell-max", "1"],
    "fischer": ["--degree", "2", "--trials", "2", "--ell-max", "1", "--s-max", "2"],
    "laguerre-table": ["--t-max", "1", "--ell-max", "1"],
    "orthogonality": ["--t-max", "1", "--ell-max", "1"],
    "transform-eigen": ["--t-max", "1", "--l-max", "1", "--points", "2",
                        "--nr", "30", "--ntheta", "30"],
    "kernel-residual": ["--samples", "5"],
    "a-minus2-suite": ["--degree", "1", "--j-max", "0", "--l-max", "0",
                       "--points", "2", "--nr", "30", "--ntheta", "32"],
}


def test_every_suite_is_registered():
    from dunkldirac.cli import SUITES
    assert set(SUITES) == set(SMALL) and len(SUITES) == 11


@pytest.mark.parametrize("name", sorted(SMALL))
def test_registered_suite_runs_green(tmp_path, name):
    assert main([name, *SMALL[name], "--out", str(tmp_path)]) == 0
    summary = read_summary(tmp_path, name)
    assert summary["checks"] == len(read_rows(tmp_path, name)) > 0
    assert summary["excluded"] == 0 and summary["all_pass"] is True


# -- what a suite run imports ---------------------------------------------------

QUADRATURE_RUNS = [
    # circle rules: Jacobi (1/2, 3/2), Legendre (1/2, 1/2), Gegenbauer (1/3, 1/3)
    ["orthogonality", "--k", "1/2,3/2", "--t-max", "1", "--ell-max", "1", "--numeric",
     "--nr", "20", "--ntheta", "16"],
    ["transform-eigen", "--k", "1/3,1/3", "--t-max", "1", "--l-max", "0", "--nr", "20",
     "--ntheta", "16", "--tol", "1e-3"],
    ["a-minus2-suite", "--k", "1/2", "--degree", "1", "--j-max", "0", "--l-max", "0",
     "--nr", "20", "--ntheta", "16", "--tol", "1e-3"],
]


def test_quadrature_suites_never_import_scipy_linalg(tmp_path):
    """The Gauss rules are built without scipy.linalg, whose import would be
    paid inside every run that builds a rule, and without a RuntimeWarning."""
    script = f"""
import json, sys, warnings
from dunkldirac.cli import main
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    codes = [main(argv + ["--out", {str(tmp_path)!r} + "/" + argv[0]])
             for argv in {QUADRATURE_RUNS!r}]
print(json.dumps({{"codes": codes, "linalg": "scipy.linalg" in sys.modules,
                  "warnings": [str(w.message) for w in caught
                               if issubclass(w.category, RuntimeWarning)]}}))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"codes": [0, 0, 0], "linalg": False, "warnings": []}
