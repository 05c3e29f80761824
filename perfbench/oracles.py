"""Independent numpy oracles for the jobs' outputs.

Each oracle is computed from the benchmark's own copy of the input
matrix (never from the program's files), once per distinct input, and
outside every timed span.
"""
from __future__ import annotations

import json

import numpy as np

from workloads import NP_ORD, Job, block_grid, dense_of

NORM_RTOL = 1e-8      # bounds CSV norm_Zij against block norms of inv(A)
MARGIN_RTOL = 1e-9    # grid.csv margins against the numpy margins
MARGIN_SAMPLES = 32   # grid.csv rows checked per job, evenly spaced

# Lines every passing `reproduce` run of a bounds-family experiment prints.
PASS_LINES = {
    "ex2.1": ("PASS: strict row block dominance", "PASS: bound validity",
              "PASS: monotone tightening", "PASS: golden table", "ex2.1: PASS"),
    "ex2.2": ("PASS: strict row block dominance", "PASS: bound validity",
              "PASS: monotone tightening", "PASS: golden table", "ex2.2: PASS"),
    "ex2.3": ("PASS: strict row block dominance", "PASS: bound validity",
              "PASS: monotone tightening", "PASS: scaling invariance", "ex2.3: PASS"),
    "ex2.4": ("PASS: strict row block dominance", "PASS: bound validity",
              "PASS: monotone tightening", "ex2.4: PASS"),
}


def inverse_norms(job: Job) -> np.ndarray:
    """(n, n) block norms of np.linalg.inv of the dense input."""
    z = block_grid(np.linalg.inv(dense_of(job.blocks)), job.blocks.shape[2])
    return np.linalg.norm(z, ord=NP_ORD[job.norm], axis=(-2, -1))


def _read_bounds_csv(path) -> np.ndarray:
    rows = path.read_text().splitlines()
    if rows[0] != "i,j,norm_Zij,u_ij,valid,E_u":
        raise ValueError(f"{path.name}: unexpected header {rows[0]!r}")
    return np.array([[float(v) for v in r.split(",")[:5]] for r in rows[1:]])


def check_bounds(job: Job, ref: np.ndarray, stdout: str) -> list[str]:
    """Every bounds CSV: norm_Zij within NORM_RTOL of the oracle (relative
    to the largest block norm) and every valid u_ij >= the oracle norm."""
    n = ref.shape[0]
    scale = float(ref.max())
    fails = []
    if job.kind == "reproduce":
        lines = stdout.splitlines()
        fails += [f"missing line {p!r}" for p in PASS_LINES[job.key]
                  if not any(ln.startswith(p) for ln in lines)]
        fails += [ln for ln in lines if ln.startswith("FAIL")]
    summary = json.loads((job.out / "bounds_summary.json").read_text())
    if [s["t"] for s in summary] != list(range(1, n)):
        fails.append(f"bounds_summary.json steps {[s['t'] for s in summary]}")
    for t in range(1, n):
        rows = _read_bounds_csv(job.out / f"bounds_t{t}.csv")
        if rows.shape != (n * n, 5):
            fails.append(f"bounds_t{t}.csv has shape {rows.shape}")
            continue
        i, j = rows[:, 0].astype(int) - 1, rows[:, 1].astype(int) - 1
        want = ref[i, j]
        err = float(np.abs(rows[:, 2] - want).max()) / scale
        if not err <= NORM_RTOL:
            fails.append(f"bounds_t{t}.csv norm_Zij off by {err:.2e} relative")
        valid = rows[:, 4] == 1
        short = valid & (rows[:, 3] < want - NORM_RTOL * scale)
        if short.any():
            k = int(np.argmax(short))
            fails.append(f"bounds_t{t}.csv u_{i[k] + 1}{j[k] + 1} below ||Z||")
    return fails


def margins(blocks: np.ndarray, norm: str, row: int, z: complex) -> tuple[float, float]:
    """(new, fv) margins of one block row at one point."""
    n, _, m, _ = blocks.shape
    offs = [blocks[row, j] for j in range(n) if j != row]
    s_inv = np.linalg.inv(blocks[row, row] - z * np.eye(m))
    new = sum(np.linalg.norm(s_inv @ b, NP_ORD[norm]) for b in offs)
    fv = np.linalg.norm(s_inv, NP_ORD[norm]) * sum(np.linalg.norm(b, NP_ORD[norm]) for b in offs)
    return float(new), float(fv)


def check_regions(job: Job) -> list[str]:
    """containment_violations == 0, the CSV has one row per node and block
    row, and margins at an even sample of rows match numpy."""
    fails = []
    summary = json.loads((job.out / "region_summary.json").read_text())
    if summary["containment_violations"] != 0:
        fails.append(f"containment_violations = {summary['containment_violations']}")
    rows = (job.out / "grid.csv").read_text().splitlines()
    expected_rows = job.grid * job.grid * job.blocks.shape[0]
    if rows[0] != "re,im,row,margin_new,margin_fv" or len(rows) - 1 != expected_rows:
        return fails + [f"grid.csv: header {rows[0]!r}, {len(rows) - 1} rows"]
    for k in np.linspace(1, expected_rows, MARGIN_SAMPLES).astype(int):
        re, im, row, got_new, got_fv = rows[k].split(",")
        want = margins(job.blocks, job.norm, int(row) - 1, complex(float(re), float(im)))
        for name, got, ref in (("margin_new", float(got_new), want[0]),
                               ("margin_fv", float(got_fv), want[1])):
            if not abs(got - ref) <= MARGIN_RTOL * abs(ref):
                fails.append(f"grid.csv line {k + 1} {name} {got!r} vs numpy {ref!r}")
    return fails
