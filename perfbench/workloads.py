"""Inputs and job cycles of the three workloads.

Every input is built here with numpy from the workload seed, and the
matrices the CLI reads are written in the documented schema-1 JSON
format by this module's own writer, so the oracles never depend on the
program's builders or on its reader.

A workload is a fixed cycle of jobs that the closed-loop client repeats.
The seed changes matrix entries and row scalings, never the sizes or the
order of the cycle: the work per cycle stays the same from seed to seed,
so throughput measures the program rather than the draw.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NORMS = ("one", "inf", "fro", "two")
NP_ORD = {"one": 1, "inf": np.inf, "fro": "fro", "two": 2}

# decay_ladder: (n, m) sizes; n spans 8..20 and m spans 2..6. Five sizes
# against four norms gives a 20-job cycle holding every (size, norm) pair.
# n stops at 20 because the shipped inverse stays within 1e-8 of the
# dense inverse only up to there; the reach ladder below goes further.
# Two-norm jobs iterate to a tolerance, so their cost moves with the
# entries. The pairing puts one-, inf- and fro-norm jobs, whose cost does
# not, at the median, and at the 90th percentile the n = 14, m = 4
# two-norm job, whose cost was measured to move by under 3% between seeds.
DECAY_SIZES = ((8, 2), (14, 4), (11, 3), (20, 6), (17, 3))

# regions, banded class: generated (n, m) sizes with n in 6..10 and m in
# 3..6, evaluated on a 24x24 grid alongside ex2.1 and ex2.2.
BANDED_SIZES = ((6, 3), (8, 5), (10, 4), (7, 6), (9, 3), (6, 5), (10, 6), (8, 4),
                (7, 3), (9, 5), (10, 3), (6, 6), (7, 4), (9, 6), (8, 3), (10, 5))
BANDED_GRID = 24
CLI_DEFAULT_GRID = 200   # the 2x2-block class runs on the CLI's default grid

# Inverse reach ladder (traced runs only): Laplacian sizes k and block
# row counts n of generated m = 4 matrices.
LADDER_LAPLACIAN_K = (9, 12, 16, 20, 32)
LADDER_RANDOM_N = (20, 24, 30, 60, 120)
LADDER_RANDOM_M = 4

# 64-bit LCG of the row scalings of ex2.3/ex2.4, as documented in the README.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407


@dataclass
class Job:
    """One CLI call. ``key`` names the distinct input and output; jobs with
    the same key repeat the same call and share one oracle."""

    key: str
    argv: list[str]
    out: Path
    kind: str              # "reproduce", "bounds" or "gershgorin"
    blocks: np.ndarray     # (n, n, m, m) block grid of the input matrix
    norm: str
    grid: int = 0          # gershgorin nodes per axis


def _toeplitz(k: int, sub: float, diag: float, sup: float) -> np.ndarray:
    t = np.diag(np.full(k, diag, dtype=np.complex128))
    t += np.diag(np.full(k - 1, sub, dtype=np.complex128), -1)
    t += np.diag(np.full(k - 1, sup, dtype=np.complex128), 1)
    return t


def block_grid(dense: np.ndarray, m: int) -> np.ndarray:
    n = dense.shape[0] // m
    return dense.reshape(n, m, n, m).transpose(0, 2, 1, 3).copy()


def dense_of(blocks: np.ndarray) -> np.ndarray:
    n, _, m, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def laplacian(k: int, sub: float = -1.0, diag: float = 2.0, sup: float = -1.0) -> np.ndarray:
    """Kronecker sum T (x) I + I (x) T as a (k, k, k, k) block grid."""
    t = _toeplitz(k, sub, diag, sup)
    eye = np.eye(k)
    return block_grid(np.kron(t, eye) + np.kron(eye, t), k)


def lcg_scales(n: int, seed: int) -> np.ndarray:
    x = seed % 2 ** 64
    out = []
    for _ in range(n):
        x = (_LCG_MUL * x + _LCG_INC) % 2 ** 64
        out.append(1 + (x >> 33) % 10)
    return np.asarray(out, dtype=float)


def example_blocks(exp_id: str, seed: int | None = None) -> np.ndarray:
    """The paper's example matrices, built independently of the program."""
    if exp_id == "ex2.1":
        return laplacian(9)
    if exp_id == "ex2.2":
        return laplacian(9, -110.0, 209.999, -99.999)
    if exp_id == "ex2.3":
        return laplacian(9) * lcg_scales(9, seed)[:, None, None, None]
    if exp_id == "ex2.4":
        g = np.zeros((9, 9, 9, 9), dtype=np.complex128)
        off = _toeplitz(9, -0.01, -2.0, 1.0)
        for i in range(9):
            g[i, i] = _toeplitz(9, -2.0, 10.0, -2.0)
            if i + 1 < 9:
                g[i, i + 1] = off
                g[i + 1, i] = off
        return g * lcg_scales(9, seed)[:, None, None, None]
    if exp_id == "ex3.1a":
        return np.asarray([
            [[[4.0, -2.0], [-2.0, 4.0]], [[-1.0, 1.0], [0.0, -1.0]]],
            [[[-1.0, 0.0], [1.0, -1.0]], [[4.0, -2.0], [-2.0, 4.0]]]], dtype=np.complex128)
    if exp_id == "ex3.1b":
        return np.asarray([
            [[[4.0, -2.0], [-2.0, 5.0]], [[-0.5, 0.5], [-1.4, -0.5]]],
            [[[-0.5, 0.0], [0.5, -0.5]], [[4.0, -2.0], [-2.0, 4.0]]]], dtype=np.complex128)
    raise ValueError(exp_id)


def _complex_block(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def _well_conditioned(rng: np.random.Generator, m: int) -> np.ndarray:
    while True:
        b = _complex_block(rng, m)
        s = np.linalg.svd(b, compute_uv=False)
        if s[-1] >= 0.15 * s[0]:
            return b


def dominant_tridiag(rng: np.random.Generator, n: int, m: int,
                     target: float = 0.9) -> np.ndarray:
    """Complex block tridiagonal (n, n, m, m) grid, strictly row block
    dominant with row sums at most ``target`` in all four norms."""
    g = np.zeros((n, n, m, m), dtype=np.complex128)
    for i in range(n - 1):
        g[i, i + 1] = _well_conditioned(rng, m)
        g[i + 1, i] = _well_conditioned(rng, m)
    eye = np.eye(m)
    for i in range(n):
        offs = [g[i, j] for j in (i - 1, i + 1) if 0 <= j < n]
        base = _complex_block(rng, m)
        shift = 1.0
        while True:
            d = base + shift * eye
            if np.linalg.cond(d) < 1e6:
                di = np.linalg.inv(d)
                worst = max(sum(np.linalg.norm(di @ b, NP_ORD[k]) for b in offs)
                            for k in NORMS)
                if worst <= target:
                    break
            shift *= 2.0
        g[i, i] = d
    return g


def _entries(block: np.ndarray) -> list:
    return [{"re": float(z.real), "im": float(z.imag)} for z in block.ravel()]


def write_matrix(path: Path, blocks: np.ndarray, tridiagonal: bool) -> None:
    """Write a schema-1 matrix file (floats keep all digits via repr)."""
    n, _, m, _ = blocks.shape
    if tridiagonal:
        body = {"A": [_entries(blocks[i, i]) for i in range(n)],
                "B": [_entries(blocks[i, i + 1]) for i in range(n - 1)],
                "C": [_entries(blocks[i + 1, i]) for i in range(n - 1)]}
        kind = "block_tridiagonal"
    else:
        body = {"grid": [[_entries(blocks[i, j]) for j in range(n)] for i in range(n)]}
        kind = "general_block"
    doc = {"schema_version": "1", "kind": kind, "n": n, "m": m, "blocks": body}
    path.write_text(json.dumps(doc))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def paper_bounds(seed: int, work: Path) -> list[Job]:
    jobs = []
    for exp_id in ("ex2.1", "ex2.2", "ex2.3", "ex2.4"):
        out = work / "out" / exp_id
        argv = ["reproduce", exp_id, "--output", str(out)]
        row_seed = None
        if exp_id in ("ex2.3", "ex2.4"):
            row_seed = _derived_seed(seed, int(exp_id[-1]))
            argv += ["--seed", str(row_seed)]
        jobs.append(Job(exp_id, argv, out, "reproduce",
                        example_blocks(exp_id, row_seed), "two"))
    return jobs


def decay_ladder(seed: int, work: Path) -> list[Job]:
    inputs = []
    for idx, (n, m) in enumerate(DECAY_SIZES):
        blocks = dominant_tridiag(_rng(seed, 1, idx), n, m)
        path = work / "in" / f"decay_n{n}_m{m}.json"
        write_matrix(path, blocks, tridiagonal=True)
        inputs.append((path, n, m, blocks))
    jobs = []
    for k in range(len(DECAY_SIZES) * len(NORMS)):
        path, n, m, blocks = inputs[k % len(inputs)]
        norm = NORMS[k % len(NORMS)]
        key = f"n{n}_m{m}_{norm}"
        out = work / "out" / key
        jobs.append(Job(key, ["bounds", "--input", str(path), "--output", str(out),
                              "--t", "all", "--norm", norm],
                        out, "bounds", blocks, norm))
    return jobs


def regions(seed: int, work: Path) -> list[Job]:
    """Rotation: the four 2x2-block jobs are spread evenly through the
    banded jobs, so that both classes see the same stretches of host speed."""
    small = []
    for exp_id in ("ex3.1a", "ex3.1b"):
        blocks = example_blocks(exp_id)
        path = work / "in" / f"{exp_id}.json"
        write_matrix(path, blocks, tridiagonal=False)
        for norm in ("one", "two"):
            small.append((f"{exp_id}_{norm}", path, blocks, norm, [], CLI_DEFAULT_GRID))
    banded_inputs = [(exp_id, example_blocks(exp_id)) for exp_id in ("ex2.1", "ex2.2")]
    for idx, (n, m) in enumerate(BANDED_SIZES):
        banded_inputs.append((f"band_n{n}_m{m}", dominant_tridiag(_rng(seed, 2, idx), n, m)))
    banded = []
    for idx, (name, blocks) in enumerate(banded_inputs):
        path = work / "in" / f"{name}.json"
        write_matrix(path, blocks, tridiagonal=True)
        norm = ("one", "two")[idx % 2]
        banded.append((f"{name}_{norm}", path, blocks, norm,
                       ["--nx", str(BANDED_GRID), "--ny", str(BANDED_GRID)], BANDED_GRID))
    per_small = len(banded) // len(small)
    order = []
    for i, item in enumerate(small):
        order += [item, *banded[i * per_small:(i + 1) * per_small]]
    order += banded[len(small) * per_small:]
    jobs = []
    for key, path, blocks, norm, grid_args, grid in order:
        out = work / "out" / key
        jobs.append(Job(key, ["gershgorin", "--input", str(path), "--output", str(out),
                              "--norm", norm, *grid_args],
                        out, "gershgorin", blocks, norm, grid))
    return jobs


WORKLOADS = {"paper_bounds": paper_bounds, "decay_ladder": decay_ladder, "regions": regions}


def make_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, work)


def reach_ladder(seed: int) -> list[tuple[str, np.ndarray]]:
    """Inputs beyond decay_ladder's sizes for the inverse reach count."""
    items = [(f"laplacian_k{k}", laplacian(k)) for k in LADDER_LAPLACIAN_K]
    items += [(f"random_n{n}_m{LADDER_RANDOM_M}",
               dominant_tridiag(_rng(seed, 3, n), n, LADDER_RANDOM_M))
              for n in LADDER_RANDOM_N]
    return items
