"""One workload run: set-up timing, the closed-loop client, the traced run.

run.py pins the BLAS threads and puts ``src`` on the path before this
module imports numpy and the program.

Host speed. On a shared 2-vCPU KVM guest (Intel Xeon, numpy 2.4 with
OpenBLAS 0.3.31 on one thread), the speed of one vCPU swings by +-15%
from second to second and by up to 30% between 40-second runs,
independently on each vCPU. So a fixed calibration probe (about
PROBE_REF_S on a quiet core) runs right before and right after every
timed call, and each time is rescaled by PROBE_REF_S / (mean of the two
probes): it reads as seconds at the probe's reference speed. On that
guest this cut the spread of jobs_per_s over ten seeds (quartile
distance over median) from 0.15-0.18 to 0.07-0.08. The program never
runs inside a probe, so the rescaling cannot hide a change in the
program. Raw wall-clock figures go to the detail line.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import blockdom
import blockdom.cli
import oracles
import workloads
from blockdom.inverse import RecurrenceOverflowError, invert_block_tridiagonal
from blockdom.kernels import SingularError
from tracer import LayerTotals, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
LADDER_RTOL = 1e-8
PROBE_REF_S = 1e-3
_PROBE_BLOCK = np.random.default_rng(0).standard_normal((9, 9))


def probe() -> float:
    """Wall time of a fixed mix of interpreter work and small LAPACK calls,
    the two kinds of work the program's jobs are made of."""
    started = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    for _ in range(30):
        np.linalg.svd(_PROBE_BLOCK, compute_uv=False)
    return time.perf_counter() - started


def timed(fn):
    """(result, raw seconds, seconds rescaled to the probe's reference speed)."""
    before = probe()
    started = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - started
    return result, raw, raw * 2 * PROBE_REF_S / (before + probe())


def measure_setup() -> tuple[float, float]:
    """Median (raw, rescaled) wall time of fresh interpreters importing
    blockdom.cli and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import blockdom.cli; blockdom.cli.build_parser()"
    runs = [timed(lambda: subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                         check=True, stdout=subprocess.DEVNULL))
            for _ in range(SETUP_RUNS)]
    return statistics.median(r[1] for r in runs), statistics.median(r[2] for r in runs)


def environment(thread_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_effect": threads,
        "thread_env": {v: os.environ.get(v) for v in (*thread_vars, "BLOCKDOM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Checker:
    """Oracle checks per job, and the artifact digest over each distinct
    input's first checked job."""

    def __init__(self):
        self.refs = {}
        self.digest = hashlib.sha256()
        self.hashed = set()

    def check(self, job, rc, stdout: str, stderr: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-300:]}"]
        try:
            if job.kind == "gershgorin":
                fails = oracles.check_regions(job)
            else:
                if job.key not in self.refs:
                    self.refs[job.key] = oracles.inverse_norms(job)
                fails = oracles.check_bounds(job, self.refs[job.key], stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        if job.key not in self.hashed:
            self.hashed.add(job.key)
            for path in sorted(job.out.iterdir()):
                self.digest.update(f"{job.key}/{path.name}\0".encode())
                self.digest.update(path.read_bytes())
        return fails


def call_cli(job) -> tuple[object, str, str]:
    """One CLI call; the module attribute is looked up per call so that an
    installed tracer sees it."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = blockdom.cli.main(job.argv)
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = "exception"
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Client:
    """Runs whole cycles of jobs, checks each job, keeps the latencies."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.checker = Checker()
        self.by_key: dict[str, list[tuple[float, float]]] = {}   # (raw, rescaled)
        self.cycles: list[tuple[int, float, float]] = []  # (correct jobs, raw, rescaled)
        self.failed_keys: set[str] = set()
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.by_key.values())

    def enough(self, seconds: float) -> bool:
        """Stop at the cycle boundary nearest to ``seconds`` of raw job
        time, so that every input has the same share of the jobs."""
        n, busy = len(self.cycles), sum(c[1] for c in self.cycles)
        return n > 0 and busy * (1 + 0.5 / n) >= seconds

    def run_cycle(self, on_done=None) -> float:
        """Run every job once; returns the cycle's rescaled job time."""
        ok, raw_sum, scaled_sum = 0, 0.0, 0.0
        for job in self.jobs:
            (rc, stdout, stderr), raw, scaled = timed(lambda: call_cli(job))
            if on_done is not None:
                on_done(raw, scaled / raw)
            fails = self.checker.check(job, rc, stdout, stderr)
            ok += not fails
            raw_sum += raw
            scaled_sum += scaled
            self.by_key.setdefault(job.key, []).append((raw, scaled))
            if fails:
                self.failed_keys.add(job.key)
                self.failures += [f"{job.key}: {f}" for f in fails]
        self.cycles.append((ok, raw_sum, scaled_sum))
        return scaled_sum

    def latency(self, q: float, which: int) -> float:
        """Nearest-rank q-th percentile over the inputs of each input's
        median latency (which: 0 raw, 1 rescaled). Each input counts once,
        so the value cannot jump between inputs as the job count changes;
        an input with a failed job reads +inf, missing every limit."""
        per_key = sorted(math.inf if key in self.failed_keys
                         else statistics.median(t[which] for t in times)
                         for key, times in self.by_key.items())
        return per_key[max(0, math.ceil(q / 100.0 * len(per_key)) - 1)]

    def throughput(self, which: int) -> float:
        """Median over cycles of correct jobs per second of job time."""
        return statistics.median(c[0] / c[1 + which] for c in self.cycles)


def reach_ladder(seed: int) -> tuple[int, list[dict]]:
    """Invert the ladder inputs with the shipped inverse; ok means within
    LADDER_RTOL relative (Frobenius) of numpy's dense inverse."""
    ok, rows = 0, []
    for name, g in workloads.reach_ladder(seed):
        n = g.shape[0]
        a = blockdom.BlockTridiagonalMatrix(
            diag=[g[i, i] for i in range(n)], sup=[g[i, i + 1] for i in range(n - 1)],
            sub=[g[i + 1, i] for i in range(n - 1)])
        ref = np.linalg.inv(workloads.dense_of(g))
        try:
            with np.errstate(all="ignore"):
                z = workloads.dense_of(invert_block_tridiagonal(a).blocks)
                err = float(np.linalg.norm(z - ref) / np.linalg.norm(ref))
        except (SingularError, RecurrenceOverflowError) as exc:
            rows.append({"input": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        ok += err <= LADDER_RTOL
        rows.append({"input": name, "rel_err": err if math.isfinite(err) else str(err)})
    return ok, rows


def end_to_end(client: Client, seconds: float) -> tuple[dict, dict]:
    setup_raw, setup_scaled = measure_setup()
    while not client.enough(seconds):
        client.run_cycle()
    metrics = {
        "setup_s": (setup_scaled, "s"),
        "jobs_per_s": (client.throughput(1), "jobs/s"),
        "job_p50_s": (client.latency(50, 1), "s"),
        "job_p90_s": (client.latency(90, 1), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"setup_s": setup_raw, "jobs_per_s": client.throughput(0),
           "job_p50_s": client.latency(50, 0), "job_p90_s": client.latency(90, 0)}
    return metrics, {"wall_clock": raw}


def traced(client: Client, seconds: float, seed: int) -> tuple[dict, dict]:
    """Whole cycles, untraced and traced in the order U T T U U T T U ...,
    as many of each, until the job time reaches ``seconds``."""
    tracer, totals = Tracer(blockdom), LayerTotals()

    def on_done(raw, scale):
        spans, observed = tracer.take()
        totals.add_job(spans, observed, raw, scale)

    cycle_s = {False: [], True: []}
    while len(client.cycles) < 2 or len(client.cycles) % 2 or not client.enough(seconds):
        is_traced = len(client.cycles) % 4 in (1, 2)
        if is_traced:
            tracer.install()
        try:
            cycle_s[is_traced].append(client.run_cycle(on_done if is_traced else None))
        finally:
            tracer.uninstall()
    ladder_ok, ladder = reach_ladder(seed)
    plain = statistics.mean(cycle_s[False])
    metrics = totals.per_job()
    metrics["inverse.ladder_ok"] = (ladder_ok, "count")
    metrics["inverse.ladder_attempted"] = (len(ladder), "count")
    metrics["trace.overhead_frac"] = ((statistics.mean(cycle_s[True]) - plain) / plain, "ratio")
    metrics["trace.unattributed_frac"] = (totals.unattributed_s() / totals.job_s, "ratio")
    detail = {"cycles_untraced": len(cycle_s[False]), "cycles_traced": len(cycle_s[True]),
              "traced_jobs": totals.jobs, "traced_job_s": totals.job_s,
              "unattributed_s": totals.unattributed_s(), "ladder": ladder}
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: int, thread_vars) -> None:
    """Run one workload and print the detail line and the result line."""
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        client = Client(workloads.make_jobs(workload, seed, work))
        # Warm-up, untimed: first calls into numpy and the program. Traced
        # runs warm every input, so that the first untraced cycle is not
        # the only cold one.
        for job in client.jobs if trace else client.jobs[:1]:
            call_cli(job)
        detail = {"workload": workload, "seed": seed, "trace": trace,
                  "cycle_jobs": len(client.jobs)}
        if trace:
            metrics, detail["trace"] = traced(client, seconds, seed)
        else:
            metrics, extra = end_to_end(client, seconds)
            detail.update(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = client.attempted
    failed = attempted - sum(c[0] for c in client.cycles)
    detail.update({
        "attempted": attempted, "cycles": len(client.cycles),
        "fail_frac": failed / attempted, "failures": client.failures[:5],
        "artifact_sha256": client.checker.digest.hexdigest(),
        "artifact_inputs": len(client.checker.hashed),
        "per_input_p50_s": {key: statistics.median(t[1] for t in times)
                            for key, times in client.by_key.items()},
        "environment": environment(thread_vars),
    })
    print(json.dumps({"detail": detail}))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{workload} fail_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
