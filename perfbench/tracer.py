"""Spans around the program's public functions, installed from outside.

The program has no tracing of its own, so the tracer replaces names in
the modules' namespaces: every public function of a ``blockdom`` module
is wrapped wherever a module looks it up (its defining module and every
module that imports it, e.g. ``blockdom.bounds.norm``), and the methods
in METHODS are wrapped on their classes. A layer is a module; a span
belongs to the module that defines the wrapped function.

Spans are kept in memory as [name, parent index, start, end] and folded
into per-layer totals after each job, outside its timed span.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

from workloads import dense_of

MODULES = ("cli", "experiments", "matrixio", "structures", "dominance",
           "inverse", "bounds", "gershgorin", "kernels")

# Methods that do real work. Per-entry accessors such as
# TauOmegaTable.tau_at run O(n^3) times per job and are left unwrapped:
# a span each would cost more than the work they do.
METHODS = {
    "structures.BlockTridiagonalMatrix": ("__post_init__", "to_dense", "to_general"),
    "structures.GeneralBlockMatrix": ("__post_init__", "to_dense"),
    "inverse.BlockInverse": ("norm_grid", "to_dense", "to_general"),
    "bounds.BoundsReport": ("write_csv", "summary_dict"),
    "gershgorin.RegionGrid": ("write_csv",),
    "gershgorin.ComparisonSummary": ("to_json_dict",),
    "dominance.DominanceReport": ("to_json_dict",),
}

# Per-layer timings: metric -> span names whose time it sums. A span
# nested directly in another span of the same metric is not counted again.
TIMED = {
    "matrixio.read_matrix_file.s": ("matrixio.read_matrix_file",),
    "matrixio.write_s": ("matrixio.write_matrix_file", "matrixio.write_json_file"),
    "dominance.check_row_block_dominance.s": ("dominance.check_row_block_dominance",),
    "inverse.ikebe_factors.s": ("inverse.ikebe_factors",),
    "inverse.residual.s": ("inverse.residual",),
    "inverse.condition_estimate.s": ("inverse.condition_estimate",),
    "inverse.norm_grid.s": ("inverse.BlockInverse.norm_grid",),
    "bounds.compute_tau_omega.s": ("bounds.compute_tau_omega",),
    "bounds.compute_bounds.s": ("bounds.compute_bounds",),
    "bounds.write_csv.s": ("bounds.BoundsReport.write_csv",),
    "gershgorin.auto_box.s": ("gershgorin.auto_box",),
    "gershgorin.eval_grid.s": ("gershgorin.eval_grid",),
    "gershgorin.compare_regions.s": ("gershgorin.compare_regions",),
    "gershgorin.write_csv.s": ("gershgorin.RegionGrid.write_csv",),
    "kernels.norm_two.s": ("kernels.norm_two",),
    "kernels.norm_other.s": ("kernels.norm_other",),
    "kernels.lu.s": ("kernels.lu_factor", "kernels.lu_solve", "kernels.invert"),
    "kernels.eigenvalues_small.s": ("kernels.eigenvalues_small",),
}

_TIMED_BY_SPAN = defaultdict(list)
for _metric, _names in TIMED.items():
    for _name in _names:
        _TIMED_BY_SPAN[_name].append(_metric)

# Per-layer call counts: metric -> span names it counts.
COUNTED = {
    "matrixio.read_matrix_file.calls": ("matrixio.read_matrix_file",),
    "structures.to_dense.calls": ("structures.BlockTridiagonalMatrix.to_dense",
                                  "structures.GeneralBlockMatrix.to_dense"),
    "structures.to_general.calls": ("structures.BlockTridiagonalMatrix.to_general",),
    "bounds.compute_bounds.calls": ("bounds.compute_bounds",),
    "kernels.norm_two.calls": ("kernels.norm_two",),
    "kernels.norm_other.calls": ("kernels.norm_other",),
    "kernels.lu_factor.calls": ("kernels.lu_factor",),
    "kernels.lu_solve.calls": ("kernels.lu_solve",),
}

_COUNTED_BY_SPAN = defaultdict(list)
for _metric, _names in COUNTED.items():
    for _name in _names:
        _COUNTED_BY_SPAN[_name].append(_metric)

# Spans whose arguments and result are kept until the job ends, for the
# byte counts and the numeric health read after it.
OBSERVED = ("matrixio.write_matrix_file", "matrixio.write_json_file",
            "bounds.BoundsReport.write_csv", "gershgorin.RegionGrid.write_csv",
            "inverse.ikebe_factors", "inverse.assemble_inverse",
            "inverse.residual", "gershgorin.eval_grid")


BYTES = ("matrixio.bytes_written", "bounds.csv_bytes", "gershgorin.csv_bytes")
WORK_COUNTS = ("gershgorin.node_rows", "gershgorin.singular_nodes")
HEALTH = ("inverse.rel_err_max", "inverse.residual_max", "inverse.diag_consistency_max")


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.spans: list[list] = []
        self.observed: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack, observed = self.spans, self._stack, self.observed
        clock = time.perf_counter
        keep = name in OBSERVED
        if name == "kernels.norm":
            two = self.modules["kernels"].NormKind.TWO

            def span_name(args, kwargs):
                kind = args[1] if len(args) > 1 else kwargs["kind"]
                return "kernels.norm_two" if kind is two else "kernels.norm_other"
        else:
            span_name = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name(args, kwargs) if span_name else name,
                          stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if keep:
                observed.append((name, args, result))
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("blockdom.")):
                    if obj not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for qual, methods in METHODS.items():
            layer, cls_name = qual.split(".")
            cls = getattr(self.modules[layer], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, f"{qual}.{meth}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list, list]:
        """Hand over and clear the spans and observations of the last job."""
        out = (list(self.spans), list(self.observed))
        self.spans.clear()
        self.observed.clear()
        return out


class LayerTotals:
    """Per-layer sums over traced jobs, times at the probe's reference speed."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.jobs = 0
        self.job_s = 0.0

    def add_job(self, spans: list, observed: list, wall_s: float, scale: float) -> None:
        """Fold in one job's spans; times are multiplied by ``scale``, the
        job's factor to the calibration probe's reference speed."""
        self.jobs += 1
        self.job_s += wall_s * scale
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, parent, start, end) in enumerate(spans):
            self.sums[name.split(".", 1)[0] + ".self_s"] += (end - start - child[idx]) * scale
            parent_name = spans[parent][0] if parent >= 0 else None
            for metric in _TIMED_BY_SPAN.get(name, ()):
                if parent_name not in TIMED[metric]:
                    self.sums[metric] += (end - start) * scale
            for metric in _COUNTED_BY_SPAN.get(name, ()):
                self.sums[metric] += 1
        self._observe(observed)

    def _observe(self, observed: list) -> None:
        last_a = None
        for name, args, result in observed:
            if name in ("matrixio.write_matrix_file", "matrixio.write_json_file"):
                self.sums["matrixio.bytes_written"] += os.path.getsize(args[0])
            elif name == "bounds.BoundsReport.write_csv":
                self.sums["bounds.csv_bytes"] += os.path.getsize(args[1])
            elif name == "gershgorin.RegionGrid.write_csv":
                self.sums["gershgorin.csv_bytes"] += os.path.getsize(args[1])
            elif name == "inverse.ikebe_factors":
                last_a = args[0]
            elif name == "inverse.assemble_inverse":
                self._max("inverse.diag_consistency_max", result.diag_consistency)
                if last_a is not None:
                    self._max("inverse.rel_err_max", inverse_rel_err(last_a, result.blocks))
            elif name == "inverse.residual":
                self._max("inverse.residual_max", result)
            elif name == "gershgorin.eval_grid":
                self.sums["gershgorin.node_rows"] += result.margins_new.size
                self.sums["gershgorin.singular_nodes"] += int(
                    (np.isinf(result.margins_new) | np.isinf(result.margins_fv)).sum())

    def _max(self, metric: str, value: float) -> None:
        self.maxima[metric] = max(self.maxima[metric], float(value))

    def per_job(self) -> dict[str, tuple[float, str]]:
        """(value, unit) per metric: sums divided by the traced job count,
        and the health maxima as they are."""
        out = {f"{m}.self_s": (self.sums[f"{m}.self_s"] / self.jobs, "s/job")
               for m in MODULES}
        for names, unit in ((TIMED, "s/job"), (COUNTED, "calls/job"), (BYTES, "bytes/job"),
                            (WORK_COUNTS, "count/job")):
            out.update({name: (self.sums[name] / self.jobs, unit) for name in names})
        out.update({name: (self.maxima[name], "ratio") for name in HEALTH})
        return out

    def unattributed_s(self) -> float:
        """Traced job time that no module's self time covers."""
        return self.job_s - sum(self.sums[f"{m}.self_s"] for m in MODULES)


def tridiag_dense(a) -> np.ndarray:
    """Dense matrix of a BlockTridiagonalMatrix from its stacked blocks."""
    n, m = a.diag.shape[0], a.diag.shape[1]
    g = np.zeros((n, n, m, m), dtype=np.complex128)
    for i in range(n):
        g[i, i] = a.diag[i]
    for i in range(n - 1):
        g[i, i + 1] = a.sup[i]
        g[i + 1, i] = a.sub[i]
    return dense_of(g)


def inverse_rel_err(a, z_blocks: np.ndarray) -> float:
    """||Z - inv(A)||_F / ||inv(A)||_F against numpy's dense inverse."""
    ref = np.linalg.inv(tridiag_dense(a))
    return float(np.linalg.norm(dense_of(z_blocks) - ref) / np.linalg.norm(ref))
