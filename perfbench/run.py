"""Benchmark of the dunkldirac verification suites, end to end and per layer.

    python3 perfbench/run.py --workload osp-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
./src).  Each round runs the workload's seeded suite invocations through
``dunkldirac.cli.main`` in a fresh process (child.py) with its own empty
report directories, so module caches start cold and append-mode report
files never mix rounds.  Rounds repeat, one at a time, until --seconds have
passed (at least MIN_ROUNDS).  After the timed rounds every round's rows are
checked and the independent computations and their doctored-output proofs
run (checks.py).  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, medians over the rounds; set-up
time also takes PROBES_PER_ROUND import-only processes before each round.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (tracer.py) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

BLAS_THREADS = 1   # at most nproc; one thread keeps numpy timings steady
MIN_ROUNDS = 3
PROBES_PER_ROUND = 2  # import-only processes before each round add set-up samples
ROUNDS_LIMIT_S = 150  # rounds stop here, leaving the checks time inside 180 s

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "poly.self_s": "s", "poly.is_zero_s": "s", "poly.zero_test_terms": "count",
    "poly.mul_expr_s": "s",
    "poly.r_squared_power_hit_ratio": "ratio", "poly.r_squared_power_lookups": "count",
    "dunkl.self_s": "s", "dunkl.kernel_series_s": "s", "dunkl.kernel_series_terms": "count",
    "deformed.self_s": "s",
    "reflection.self_s": "s",
    "reflection.reflect_monomial_hit_ratio": "ratio",
    "reflection.reflect_monomial_lookups": "count",
    "clifford.self_s": "s",
    "clifford.blade_product_hit_ratio": "ratio", "clifford.blade_product_lookups": "count",
    "scalars.self_s": "s", "params.self_s": "s", "kelvin.self_s": "s",
    "laguerre.self_s": "s", "measure.self_s": "s", "fischer.self_s": "s",
    "linalg.self_s": "s", "quadrature.self_s": "s", "quadrature.nodes": "count",
    "fourier.self_s": "s",
    "dunkltransform.self_s": "s", "dunkltransform.kernel_matrix_s": "s",
    "dunkltransform.kernel_pairs": "count",
    "cli.self_s": "s", "cli.err_max": "1",
    "trace.run_s": "s", "trace.unattributed_s": "s", "trace.spans": "count",
    "trace.overhead_s": "s",
}


class RoundFailed(RuntimeError):
    pass


def run_round(rdir: Path, invocations: list, traced: bool, deadline: float) -> dict:
    """One round in a fresh process; returns its result dict."""
    rdir.mkdir(parents=True)
    inv_dirs = [rdir / f"inv{j}" for j in range(len(invocations))]
    plan = {"invocations": [inv.argv + ["--out", str(d)]
                            for inv, d in zip(invocations, inv_dirs)],
            "trace": traced, "spans_path": str(rdir / "spans.npz")}
    (rdir / "plan.json").write_text(json.dumps(plan))
    threads = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONDONTWRITEBYTECODE="1")
    result_path = rdir / "result.json"
    with (rdir / "stdout.log").open("w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(rdir / "plan.json"),
             repr(t0), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT))
        try:
            rc = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RoundFailed(f"{rdir.name} ran past the time limit")
    if rc != 0:
        raise RoundFailed(f"{rdir.name} exited with {rc}; see {rdir / 'stdout.log'}")
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    result["inv_dirs"] = inv_dirs
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    hard_deadline = started + ROUNDS_LIMIT_S
    if not (SRC / "dunkldirac" / "__init__.py").is_file():
        print(f"perfbench: no dunkldirac sources under {SRC}", file=sys.stderr)
        return 2

    invocations = WORKLOADS[args.workload](args.seed)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)

    # untraced rounds only, or untraced and traced rounds in turn
    rounds, probes = [], []
    measure_until = started + args.seconds
    try:
        while True:
            for i in range(PROBES_PER_ROUND):
                name = f"setup{len(rounds):02d}-{i}"
                probes.append(run_round(out / name, [], False, hard_deadline))
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(out / f"round{len(rounds):02d}", invocations,
                                    traced, hard_deadline))
            enough = len(rounds) >= (2 if args.trace else MIN_ROUNDS)
            if enough and time.perf_counter() >= measure_until:
                break
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(SRC))
    import checks

    attempted = failed = 0
    for rnd in rounds:
        rnd["rows"] = [checks.read_rows(d, inv.suite)
                       for inv, d in zip(invocations, rnd["inv_dirs"])]
        for inv, rows in zip(invocations, rnd["rows"]):
            attempted += inv.rows
            failed += checks.row_failures(rows, inv.rows)
    last_rows = rounds[-1]["rows"]
    try:
        outputs = checks.program_outputs(args.workload, invocations, args.seed)
        results = checks.independent_checks(invocations, last_rows, outputs)
        missed = checks.prove_checks(invocations, last_rows, outputs)
    except Exception:  # output the checks cannot read counts as wrong output
        traceback.print_exc()
        results, missed = [("independent checks ran", False)], []
    attempted += len(results)
    failed += sum(1 for _name, ok in results if not ok)
    for name, ok in results:
        if not ok:
            print(f"perfbench: independent check failed: {name}", file=sys.stderr)
    for name in missed:
        print(f"perfbench: doctored output not rejected: {name}", file=sys.stderr)
    correct = all(ok for _name, ok in results) and not missed

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["cli.err_max"] = max(checks.err_max(rows) for r in rounds for rows in r["rows"])
        layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        samples = {"run_s": plain, "setup_s": probes + plain, "peak_rss_mb": plain}
        metrics = {name: {"value": statistics.median(r[name] for r in samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    manifest = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "rounds": len(plain), "traced_rounds": len(rounds) - len(plain),
                "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                "python": sys.version.split()[0], "versions": _versions(),
                "elapsed_s": round(time.perf_counter() - started, 3)}
    print("perfbench manifest: " + json.dumps(manifest))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    import dunkldirac
    return {"dunkldirac": dunkldirac.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


if __name__ == "__main__":
    sys.exit(main())
