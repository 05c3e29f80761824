"""Desk-scale reproduction experiments with golden expected values.

Six matrices are covered:

  * ex2.1  discrete Laplacian on a 9x9 grid (81x81, blocks 9x9)
  * ex2.2  same structure with strongly nonsymmetric couplings
  * ex2.3  ex2.1 with integer-scaled block rows (seeded)
  * ex2.4  nonsymmetric stencil blocks with scaled block rows (seeded)
  * ex3.1a symmetric 4x4 with 2x2 blocks (region comparison)
  * ex3.1b nonsymmetric 4x4 with 2x2 blocks (region comparison)

ex2.1 and ex2.2 carry golden tables of max relative bound errors per
refinement step; ex2.3 and ex2.4 are property checked (dominance, bound
validity, monotone tightening) because their row scalings are seeded
rather than fixed. ex3.1a/b compare the two inclusion-region families on
a node grid and check that known eigenvalues are covered.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import BoundsReport, TauOmegaTable, compute_bounds, compute_tau_omega
from .dominance import DominanceReport, check_row_block_dominance, diag_solves
from .gershgorin import ComparisonSummary, compare_regions, eval_grid
from .inverse import condition_estimate, diag_residual, invert_block_tridiagonal, residual
from .kernels import NormKind, SingularError, eigenvalues_small
from .matrixio import write_json_file, write_matrix_file
from .structures import (BlockTridiagonalMatrix, GeneralBlockMatrix,
                         block_tridiag_from_stencils, build_random_diag,
                         build_tridiag_toeplitz, kron_sum, left_scale_blockrows)

EXPERIMENT_IDS = ("ex2.1", "ex2.2", "ex2.3", "ex2.4", "ex3.1a", "ex3.1b")
SEEDED_IDS = ("ex2.3", "ex2.4")

# Golden expected values: tolerance for plain decimal entries, and the
# comparison mode "max" for entries only known to be tiny.
GOLDEN_ABS_TOL = 5e-4
GOLDEN_TINY_BOUND = 1e-10


@dataclass(frozen=True)
class GoldenEntry:
    t: int
    max_eu: float | None   # None: only bounded above by GOLDEN_TINY_BOUND
    max_el: float


GOLDEN_TABLES: dict[str, tuple[GoldenEntry, ...]] = {
    "ex2.1": (
        GoldenEntry(1, 0.84478, 0.91039),
        GoldenEntry(2, 0.63381, 0.90877),
        GoldenEntry(3, 0.39537, 0.90765),
        GoldenEntry(4, 0.20899, 0.90529),
        GoldenEntry(5, 0.09596, 0.90529),
        GoldenEntry(6, 0.03780, 0.90529),
        GoldenEntry(7, 0.01109, 0.90529),
        GoldenEntry(8, None, 0.90529),
    ),
    "ex2.2": (
        GoldenEntry(1, 0.88856, 0.90934),
        GoldenEntry(2, 0.70640, 0.90768),
        GoldenEntry(3, 0.46700, 0.90652),
        GoldenEntry(4, 0.25859, 0.90411),
        GoldenEntry(5, 0.12442, 0.90411),
        GoldenEntry(6, 0.05378, 0.90411),
        GoldenEntry(7, 0.02140, 0.90411),
        GoldenEntry(8, 0.00824, 0.90411),
    ),
}

# Spectra of the two region-comparison matrices, to four decimals.
REFERENCE_EIGENVALUES = {
    "ex3.1a": (1.4586, 2.3820, 4.6180, 7.5414),
    "ex3.1b": (1.6851, 2.5959, 6.2263, 6.4927),
}

EIGEN_COVER_SLACK = 1e-6
BOUND_VALIDITY_SLACK = 1e-10
MONOTONE_SLACK = 1e-12


def build_example(exp_id: str, seed: int | None = None):
    """Construct one of the named example matrices."""
    if exp_id in SEEDED_IDS and seed is None:
        raise ValueError(f"{exp_id} needs a seed for its row scaling")
    if exp_id == "ex2.1":
        return kron_sum(build_tridiag_toeplitz(9, -1.0, 2.0, -1.0))
    if exp_id == "ex2.2":
        return kron_sum(build_tridiag_toeplitz(9, -110.0, 209.999, -99.999))
    if exp_id == "ex2.3":
        base = kron_sum(build_tridiag_toeplitz(9, -1.0, 2.0, -1.0))
        return left_scale_blockrows(base, build_random_diag(base.n, 1, 10, seed))
    if exp_id == "ex2.4":
        base = block_tridiag_from_stencils(
            9, 9, (-0.01, -2.0, 1.0), (-2.0, 10.0, -2.0), (-0.01, -2.0, 1.0))
        return left_scale_blockrows(base, build_random_diag(base.n, 1, 10, seed))
    if exp_id == "ex3.1a":
        return GeneralBlockMatrix(blocks=np.asarray([
            [[[4.0, -2.0], [-2.0, 4.0]], [[-1.0, 1.0], [0.0, -1.0]]],
            [[[-1.0, 0.0], [1.0, -1.0]], [[4.0, -2.0], [-2.0, 4.0]]],
        ], dtype=np.complex128))
    if exp_id == "ex3.1b":
        return GeneralBlockMatrix(blocks=np.asarray([
            [[[4.0, -2.0], [-2.0, 5.0]], [[-0.5, 0.5], [-1.4, -0.5]]],
            [[[-0.5, 0.0], [0.5, -0.5]], [[4.0, -2.0], [-2.0, 4.0]]],
        ], dtype=np.complex128))
    raise ValueError(f"unknown experiment id {exp_id!r}; expected one of {EXPERIMENT_IDS}")


@dataclass
class ExperimentSpec:
    """Configuration of one reproduction run."""

    exp_id: str
    seed: int | None = None
    norm: NormKind = NormKind.TWO
    output_dir: Path = Path("out")
    t_values: tuple[int, ...] | None = None   # None: all steps 1..n-1
    nx: int = 400
    ny: int = 400
    box: tuple[float, float, float, float] | None = None


@dataclass
class ExperimentResult:
    exp_id: str
    passed: bool
    messages: list[str] = field(default_factory=list)


def compare_golden(exp_id: str, reports: dict[int, BoundsReport]) -> list[str]:
    """Check the computed maxima of the steps that ran against the golden
    table; returns failure messages (empty means pass)."""
    failures = []
    for entry in (e for e in GOLDEN_TABLES[exp_id] if e.t in reports):
        rep = reports[entry.t]
        if rep.max_eu is None or rep.max_el is None:
            failures.append(f"t={entry.t}: maxima undefined")
            continue
        if entry.max_eu is None:
            if not rep.max_eu <= GOLDEN_TINY_BOUND:
                failures.append(
                    f"t={entry.t}: max_Eu {rep.max_eu:.3e} above {GOLDEN_TINY_BOUND:.0e}")
        elif abs(rep.max_eu - entry.max_eu) > GOLDEN_ABS_TOL:
            failures.append(
                f"t={entry.t}: max_Eu {rep.max_eu:.5f} vs golden {entry.max_eu:.5f}")
        if abs(rep.max_el - entry.max_el) > GOLDEN_ABS_TOL:
            failures.append(
                f"t={entry.t}: max_El {rep.max_el:.5f} vs golden {entry.max_el:.5f}")
    return failures


def check_bound_validity(reports: dict[int, BoundsReport]) -> list[str]:
    """Upper bounds must dominate the computed norms, lower bounds must
    stay below the diagonal norms, at every step, up to a slack of
    BOUND_VALIDITY_SLACK * max(1, norm)."""
    failures = []
    for t, rep in sorted(reports.items()):
        nz = rep.z_norms
        bad_u = np.isfinite(rep.upper) & (
            rep.upper < nz - BOUND_VALIDITY_SLACK * np.maximum(1.0, nz))
        if bad_u.any():
            i, j = np.argwhere(bad_u)[0]
            failures.append(
                f"t={t}: upper bound below ||Z_{i + 1}{j + 1}|| "
                f"({rep.upper[i, j]:.6g} < {nz[i, j]:.6g})")
        diag = nz.diagonal()
        bad_l = rep.lower > diag + BOUND_VALIDITY_SLACK * np.maximum(1.0, diag)
        if bad_l.any():
            i = int(np.argwhere(bad_l)[0][0])
            failures.append(
                f"t={t}: lower bound above ||Z_{i + 1}{i + 1}|| "
                f"({rep.lower[i]:.6g} > {diag[i]:.6g})")
    return failures


def check_monotone(reports: dict[int, BoundsReport]) -> list[str]:
    """Refinement must never loosen a bound: upper bounds non-increasing
    and lower bounds non-decreasing in t."""
    failures = []
    ts = sorted(reports)
    for t_prev, t_next in zip(ts, ts[1:]):
        if t_next != t_prev + 1:
            continue
        a, b = reports[t_prev], reports[t_next]
        slack = MONOTONE_SLACK * np.maximum(1.0, np.where(np.isfinite(a.upper), a.upper, 1.0))
        worse_u = np.isfinite(a.upper) & (b.upper > a.upper + slack)
        if worse_u.any():
            i, j = np.argwhere(worse_u)[0]
            failures.append(f"t={t_next}: upper bound ({i + 1},{j + 1}) grew")
        if (b.lower < a.lower - MONOTONE_SLACK * np.maximum(1.0, a.lower)).any():
            failures.append(f"t={t_next}: a lower bound shrank")
        if (a.diag_upper_valid & ~b.diag_upper_valid).any():
            failures.append(f"t={t_next}: a diagonal upper bound turned invalid")
    return failures


def _bounds_table_text(reports: dict[int, BoundsReport]) -> str:
    lines = ["  t  max_Eu        max_El        rho1          rho2"]
    for t in sorted(reports):
        rep = reports[t]
        eu = "n/a" if rep.max_eu is None else "%.6g" % rep.max_eu
        el = "n/a" if rep.max_el is None else "%.6g" % rep.max_el
        lines.append("%3d  %-12s  %-12s  %-12.6g  %-12.6g" % (t, eu, el, rep.rho1, rep.rho2))
    return "\n".join(lines) + "\n"


@dataclass
class BoundsChain:
    """What run_bounds_chain computed (None where a stage did not run)."""

    dominance: DominanceReport | None = None
    table: TauOmegaTable | None = None
    residual: dict | None = None    # the residual.json document
    reports: dict[int, BoundsReport] = field(default_factory=dict)
    artifacts: dict[str, Path] = field(default_factory=dict)


def run_bounds_chain(a: BlockTridiagonalMatrix, kind: NormKind, out: Path,
                     write: tuple[str, ...],
                     t_values: tuple[int, ...] | None = None) -> BoundsChain:
    """The paper's chain on one matrix: row block dominance, tau/omega,
    inverse, bounds per refinement step, then the artifacts.

    ``write`` names the artifacts, out of "matrix", "dominance", "inverse",
    "residual" and "bounds" (bounds_t<T>.csv per step and
    bounds_summary.json); a stage runs only if one of them needs it.
    Without row block dominance there are no bounds, and only "matrix"
    and "dominance" are written. ``t_values`` are the steps (None: all of
    1..n-1); one past n-1 raises ValueError before anything is written.
    The diagonal blocks are solved once, for every stage.
    """
    chain = BoundsChain()
    try:
        solves = diag_solves(a)
    except SingularError:
        # The dominance report records the singular rows; the inverse,
        # if it runs, raises.
        solves = None
    if "dominance" in write or "bounds" in write:
        chain.dominance = check_row_block_dominance(a, kind, solves)
        if "bounds" in write and not chain.dominance.dominant:
            write = tuple(name for name in write if name in ("matrix", "dominance"))
    if "bounds" in write:
        t_max = max(1, a.n - 1)
        chain.table = compute_tau_omega(a, kind, t_max, solves)
        t_values = t_values or tuple(range(1, t_max + 1))
        if max(t_values) > t_max:
            raise ValueError(f"t={max(t_values)} exceeds the refinement range 1..{t_max}")
    if {"inverse", "residual", "bounds"} & set(write):
        z = invert_block_tridiagonal(a, solves)
    if "residual" in write:
        chain.residual = {"norm": kind.value, "residual": residual(a, z, kind),
                          "condition_estimate": condition_estimate(a, z, kind),
                          "diag_residual": diag_residual(a, z, kind)}
    if "bounds" in write:
        chain.reports = {t: compute_bounds(a, z, chain.table, t) for t in sorted(t_values)}

    def path(name: str, suffix: str = ".json") -> Path:
        chain.artifacts[name] = out / f"{name}{suffix}"
        return chain.artifacts[name]

    if write:
        out.mkdir(parents=True, exist_ok=True)
    if "matrix" in write:
        write_matrix_file(path("matrix"), a)
    if "dominance" in write:
        write_json_file(path("dominance"), chain.dominance.to_json_dict())
    if "inverse" in write:
        write_matrix_file(path("inverse"), z.to_general())
    if "residual" in write:
        write_json_file(path("residual"), chain.residual)
    # The reports keep the inverse's norm grid. Drop its blocks, so that
    # they and the CSV text below are never held at once.
    z = None
    # Each step's CSV reuses the text of the cells the previous step
    # wrote with the same bits; the refinement converges, so most repeat.
    text = None
    for t, rep in chain.reports.items():
        text = rep.write_csv(path(f"bounds_t{t}", ".csv"), text)
    if chain.reports:
        write_json_file(path("bounds_summary"),
                        [rep.summary_dict() for rep in chain.reports.values()])
    return chain


def _run_bounds_family(spec: ExperimentSpec, out: Path,
                       result: ExperimentResult) -> None:
    a = build_example(spec.exp_id, spec.seed)
    chain = run_bounds_chain(a, spec.norm, out, ("matrix", "dominance", "residual", "bounds"),
                             spec.t_values)
    dom = chain.dominance
    if dom.strict:
        result.messages.append(
            f"PASS: strict row block dominance (max row sum {dom.row_sums.max():.6g})")
    else:
        result.messages.append("FAIL: matrix not strictly row block dominant")
        result.passed = False
        return

    res, cond = chain.residual["residual"], chain.residual["condition_estimate"]
    result.messages.append(f"INFO: inverse residual {res:.4e}, cond estimate {cond:.4e}")

    reports = chain.reports
    (out / "bounds_table.txt").write_text(_bounds_table_text(reports))

    for name, failures in (("bound validity", check_bound_validity(reports)),
                           ("monotone tightening", check_monotone(reports))):
        if failures:
            result.messages.extend(f"FAIL: {name}: {f}" for f in failures)
            result.passed = False
        else:
            result.messages.append(f"PASS: {name} at all steps")

    if spec.exp_id in GOLDEN_TABLES and spec.norm is not NormKind.TWO:
        result.messages.append(
            f"INFO: golden table skipped: it holds two-norm values, not {spec.norm.value}-norm")
    elif spec.exp_id in GOLDEN_TABLES:
        failures = compare_golden(spec.exp_id, reports)
        if failures:
            result.messages.extend(f"FAIL: golden table: {f}" for f in failures)
            result.passed = False
        else:
            ran = sum(entry.t in reports for entry in GOLDEN_TABLES[spec.exp_id])
            result.messages.append(f"PASS: golden table ({ran} steps)")

    if spec.exp_id == "ex2.3":
        # Row scaling must not move the decay coefficients at all.
        table = chain.table
        base = compute_tau_omega(build_example("ex2.1"), spec.norm, table.t_max)
        drift = max(float(np.abs(table.tau - base.tau).max()),
                    float(np.abs(table.omega - base.omega).max()))
        if drift <= 1e-12:
            result.messages.append(
                f"PASS: scaling invariance of tau/omega (drift {drift:.2e})")
        else:
            result.messages.append(
                f"FAIL: tau/omega drifted {drift:.2e} under row scaling")
            result.passed = False


@dataclass(frozen=True)
class RegionChain:
    """What run_region_chain computed and wrote."""

    summary: ComparisonSummary
    eigen_cover: list[dict] | None
    artifacts: dict[str, Path]


def run_region_chain(g, kind: NormKind, out: Path,
                     box: tuple[float, float, float, float] | None, nx: int, ny: int,
                     reference: tuple[float, ...] | None) -> RegionChain:
    """The region comparison on one matrix: both margins on the node grid
    and their node counts, written to grid.csv and region_summary.json.

    With ``reference`` eigenvalues, the computed eigenvalue nearest each
    one is located on the grid, and its largest new-set margin over the
    rows goes into ``eigen_cover`` and the summary.
    """
    grid = eval_grid(g, box, nx, ny, kind)
    summary = compare_regions(grid)
    doc = summary.to_json_dict()
    cover = None
    if reference is not None:
        eigs = eigenvalues_small(g.to_dense())
        res, ims = grid.re_values(), grid.im_values()
        cover = doc["eigen_cover"] = []
        for lam_ref in reference:
            lam = eigs[np.argmin(np.abs(eigs - lam_ref))]
            ix = int(np.argmin(np.abs(res - lam.real)))
            iy = int(np.argmin(np.abs(ims - lam.imag)))
            cover.append({"eigenvalue": lam,
                          "margin_new": float(grid.margins_new[:, iy, ix].max())})

    out.mkdir(parents=True, exist_ok=True)
    artifacts = {"grid": out / "grid.csv", "region_summary": out / "region_summary.json"}
    grid.write_csv(artifacts["grid"])
    write_json_file(artifacts["region_summary"], {
        **doc, "box": [grid.re_min, grid.re_max, grid.im_min, grid.im_max],
        "nx": grid.nx, "ny": grid.ny, "norm": kind.value})
    return RegionChain(summary, cover, artifacts)


def _run_region_family(spec: ExperimentSpec, out: Path,
                       result: ExperimentResult) -> None:
    g = build_example(spec.exp_id)
    write_matrix_file(out / "matrix.json", g)

    chain = run_region_chain(g, spec.norm, out, spec.box, spec.nx, spec.ny,
                             REFERENCE_EIGENVALUES[spec.exp_id])
    summary = chain.summary

    if summary.containment_violations == 0:
        result.messages.append("PASS: new regions contained in fv regions at every node")
    else:
        result.messages.append(
            f"FAIL: {summary.containment_violations} node(s) violate containment")
        result.passed = False

    if summary.union_count_new < summary.union_count_fv:
        result.messages.append(
            f"PASS: new union smaller ({summary.union_count_new} vs "
            f"{summary.union_count_fv} nodes)")
    else:
        result.messages.append(
            f"FAIL: new union not smaller ({summary.union_count_new} vs "
            f"{summary.union_count_fv} nodes)")
        result.passed = False

    worst = min(c["margin_new"] for c in chain.eigen_cover)
    if worst >= 1.0 - EIGEN_COVER_SLACK:
        result.messages.append(
            f"PASS: every eigenvalue covered (worst margin {worst:.6f})")
    else:
        result.messages.append(
            f"FAIL: eigenvalue escapes the new union (margin {worst:.6f})")
        result.passed = False


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment end to end, writing artifacts to spec.output_dir."""
    if spec.exp_id not in EXPERIMENT_IDS:
        raise ValueError(f"unknown experiment id {spec.exp_id!r}")
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult(exp_id=spec.exp_id, passed=True)
    if spec.exp_id.startswith("ex2."):
        _run_bounds_family(spec, out, result)
    else:
        _run_region_family(spec, out, result)
    return result
