"""Report bytes stay put: seven small suite runs against committed references.

The files under ``tests/golden`` are the rows, the summary and the console
line of each run in ``GOLDEN_RUNS``, with the report directory written as
``<OUT>``.  A rerun must reproduce them byte for byte once its own report
directory is written the same way, ``runtime_ms`` is masked in every row and
summary, and the summary keys listed in ``ADDED_LATER`` (counters that came
after the references were written) are dropped.  A change that alters a
report on purpose regenerates the references from the same argv lists.
"""

import json
from pathlib import Path

import pytest

from dunkldirac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "<OUT>"
ADDED_LATER = ("layer_caches",)

GOLDEN_RUNS = {
    "verify-osp-symmetric3": [
        "verify-osp", "--family", "symmetric", "--m", "3", "--k", "1/2",
        "--degree", "1", "--a", "4/3", "--b=-3/5", "--c", "5/7"],
    # degree 2 on z2^3: each x3^2 input folds into three terms, so a blade
    # reaches every term of its input
    "verify-osp-z2-3": [
        "verify-osp", "--family", "z2", "--m", "3", "--k", "1/2,1/3,3/2",
        "--degree", "2", "--a", "4/3", "--b=-2/5", "--c=-3/7"],
    "verify-kelvin-z2-2": [
        "verify-kelvin", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
        "--degree", "2", "--a", "2/3", "--b", "1/5", "--c", "1/7"],
    # off-axis reflections, so T_i, D_i and D mix monomials
    "verify-kelvin-symmetric3": [
        "verify-kelvin", "--family", "symmetric", "--m", "3", "--k", "1/2",
        "--degree", "2", "--a", "4/3", "--b=-3/5", "--c", "5/7"],
    "laguerre-table-z2-2": [
        "laguerre-table", "--family", "z2", "--m", "2", "--k", "1/2,3/2",
        "--a", "4/3", "--b", "1/3", "--c", "1/2", "--t-max", "3", "--ell-max", "1"],
    # exact strings with powers of a/2 and 2 and a Gamma value, as printed
    "orthogonality-z2-2": [
        "orthogonality", "--family", "z2", "--m", "2", "--k", "1/3,1/2",
        "--a", "4/3", "--b", "1/3", "--c", "1/2", "--t-max", "2", "--ell-max", "1"],
    # float() of exact sphere integrals, through the Gram summary
    "basis-gram-z2-2": [
        "basis", "--family", "z2", "--m", "2", "--k", "1/3,1/2",
        "--ell-max", "2", "--gram"],
}


def _masked(value):
    if isinstance(value, dict):
        return {k: "*" if k == "runtime_ms" else _masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


def _rows_text(text: str) -> str:
    return "".join(json.dumps(_masked(json.loads(line))) + "\n" for line in text.splitlines())


def _summary_text(text: str) -> str:
    summary = _masked(json.loads(text))
    for key in ADDED_LATER:
        summary.pop(key, None)
    return json.dumps(summary, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_reports_match_the_committed_references(name, tmp_path, capsys):
    argv = GOLDEN_RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), OUT)
    rows = (tmp_path / f"{argv[0]}.jsonl").read_text()
    summary = (tmp_path / f"{argv[0]}-summary.json").read_text().replace(str(tmp_path), OUT)
    assert stdout == (GOLDEN / f"{name}.stdout").read_text()
    assert _rows_text(rows) == _rows_text((GOLDEN / f"{name}.jsonl").read_text())
    assert _summary_text(summary) == _summary_text((GOLDEN / f"{name}-summary.json").read_text())
