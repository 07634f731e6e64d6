"""One round of a workload in a fresh process.

Started by run.py, which passes the perf_counter reading it took just before
starting this process (CLOCK_MONOTONIC, shared by all processes), so
``setup_s`` covers interpreter start-up and every import.  ``run_s`` runs
from the first suite call to the return of the last, after which every row
and summary is on disk.  The result goes to a JSON file; the suites' own
console lines go to this process's stdout, which run.py sends to a log.

    python3 perfbench/child.py PLAN.json T0 RESULT.json
"""

import json
import resource
import sys
import time

import mpmath  # noqa: F401  (imported lazily by the program; ready before timing)
import numpy  # noqa: F401
import scipy.special  # noqa: F401

from dunkldirac import cli

READY = time.perf_counter()


def main(plan_path: str, t0: float, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    for argv in plan["invocations"]:
        cli.main(argv)
    run_s = time.perf_counter() - start
    sys.stdout.flush()
    result = {
        "setup_s": READY - t0,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(run_s)
        tracer.dump(plan["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2]), sys.argv[3]))
