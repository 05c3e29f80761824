"""Closed-loop benchmark of the blockdom CLI's three job paths.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_bounds --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Workloads (one client, one process, each job an in-process call to
``blockdom.cli.main(argv)`` on inputs generated from --seed before timing):

  paper_bounds  `reproduce` ex2.1, ex2.2, ex2.3, ex2.4 in rotation, two-norm;
                the row-scaling seeds of ex2.3/ex2.4 come from --seed.
  decay_ladder  `bounds --t all` on generated complex, strictly row block
                dominant tridiagonal matrices, n in 8..20, m in 2..6,
                the norm cycling one, inf, fro, two.
  regions       `gershgorin` on the 2x2-block examples ex3.1a/b (200x200
                grid, one- and two-norm) and on banded inputs (ex2.1, ex2.2
                and generated ones, 24x24 grid).

The client repeats the workload's job cycle, in whole cycles, until the
jobs' own time adds up to --seconds. Every job's output is checked
against an independent numpy oracle outside its timed span; a job that
exits nonzero or fails a check counts as failed and as missing every
latency limit.

--trace 0 prints the end-to-end metrics: setup_s (median cold start of a
fresh interpreter to blockdom.cli imported and its parser built),
jobs_per_s (median over cycles of correct jobs per second of job time),
job_p50_s and job_p90_s (percentiles over the cycle's inputs of each
input's median latency) and peak_rss_mb. Times are rescaled to the speed
of a calibration probe timed around every call (see bench.py); the raw
wall-clock values are on the detail line. fail_frac goes to the summary
on stderr; the result line carries it as attempted/failed.

--trace 1 alternates untraced and traced whole cycles and prints the
per-layer metrics: module self times and named function times (seconds
per traced job), call counts and bytes per traced job, numeric health
maxima, the inverse reach count on a ladder of larger inputs, and the
tracing overhead.

The last stdout line is the result JSON; the line before it holds
details: environment, artifact digest, per-class latencies, the reach
ladder and the trace coverage.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# BLAS threads are pinned before numpy loads. With two OpenBLAS threads,
# four repeated condition_estimate calls on ex2.1 in one process took
# 724, 265, 3 and 2 ms (2-vCPU Xeon guest, OpenBLAS 0.3.31); with one
# thread each took about 2 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("paper_bounds", "decay_ladder", "regions")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    for metric, entry in metrics.items():
        print(f"{metric:<48} {entry['value']!s:>24} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isfile(os.path.join(src, "blockdom", "cli.py")):
        print(f"error: no blockdom sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BLOCKDOM_THREADS", None)
    sys.path.insert(0, src)
    import bench  # imports numpy, so only after the pinning above
    bench.run(args.workload, args.seed, args.seconds, args.trace, THREAD_VARS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
