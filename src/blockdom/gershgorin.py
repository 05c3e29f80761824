"""Block Gershgorin eigenvalue inclusion regions.

For a block partitioned matrix A, row i contributes two candidate sets:

    new:  sum_{j != i} ||(A_ii - z I)^{-1} A_ij||  >= 1
    fv:   ||(A_ii - z I)^{-1}|| sum_{j != i} ||A_ij||  >= 1

The new set is contained in the fv set row by row, both contain the
spectrum when unioned over rows, and for 1x1 blocks both collapse to the
classical Gershgorin disks. Points where A_ii - z I is singular belong to
both sets; their margins are +infinity.

Grid evaluation batches the shifted blocks per row and solves each slice
of nodes with one ``solve_row``, which factors every shifted block once
for all of the row's blocks. A slice holds about GRID_CHUNK solved
blocks, with one thread per CPU (at most one per row and slice). Outside
the two-norm, the SVD singularity test runs only on nodes whose inverse
does not rule it out. LAPACK works on each matrix alone and every slice
writes its own columns, so the margins are bitwise the same whatever the
thread count or the slice size.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import (SINGULAR_SHIFT_RTOL, NormKind, batch_norm, eigenvalues_small, norm,
                      singular_mask, solve_row)
from .matrixio import fill_floats
from .structures import block_rows

# Solved blocks per slice: a block row with k off-diagonal slots is walked
# in slices of GRID_CHUNK // (k + 1) nodes, so one in-flight slice holds
# about GRID_CHUNK * m * m * 16 bytes of solved blocks, whatever the grid.
GRID_CHUNK = 4096


@dataclass(frozen=True)
class RegionQuery:
    """Membership margins of one point for one block row (1-based)."""

    z: complex
    row: int
    margin_new: float
    margin_fv: float

    @property
    def in_new(self) -> bool:
        return self.margin_new >= 1.0

    @property
    def in_fv(self) -> bool:
        return self.margin_fv >= 1.0


@dataclass(frozen=True)
class RegionGrid:
    """Margins of both region families on a rectangular node grid.

    ``margins_new[i, iy, ix]`` is the new-set margin of block row i+1 at
    node (re[ix], im[iy]); likewise ``margins_fv``.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    norm_kind: NormKind
    margins_new: np.ndarray
    margins_fv: np.ndarray

    @property
    def rows(self) -> int:
        return self.margins_new.shape[0]

    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def member_new(self) -> np.ndarray:
        return self.margins_new >= 1.0

    def member_fv(self) -> np.ndarray:
        return self.margins_fv >= 1.0

    def write_csv(self, path) -> None:
        """One line per node and block row, node-major in (im, re) order,
        streamed one grid row (fixed im) at a time."""
        res = fill_floats("%.17g\n" * self.nx, self.re_values()).split()
        ims = fill_floats("%.17g\n" * self.ny, self.im_values()).split()
        # The re and row columns repeat on every grid row: bake them into
        # one template and fill in the im text and the margins per row.
        line = "".join(f"{re},{{im}},{i},%.17g,%.17g\n"
                       for re in res for i in range(1, self.rows + 1))
        with open(path, "w") as fh:
            fh.write("re,im,row,margin_new,margin_fv\n")
            for iy, im in enumerate(ims):
                pairs = np.stack([self.margins_new[:, iy].T,
                                  self.margins_fv[:, iy].T], axis=-1)
                fh.write(fill_floats(line.replace("{im}", im), pairs))


@dataclass(frozen=True)
class ComparisonSummary:
    """Node counts comparing the two region families on one grid."""

    counts_new: tuple[int, ...]
    counts_fv: tuple[int, ...]
    union_count_new: int
    union_count_fv: int
    containment_violations: int
    node_area: float

    def to_json_dict(self) -> dict:
        ratios = [cn / cf if cf else float("nan")
                  for cn, cf in zip(self.counts_new, self.counts_fv)]
        return {
            "counts_new": list(self.counts_new),
            "counts_fv": list(self.counts_fv),
            "count_ratio": ratios,
            "union_count_new": self.union_count_new,
            "union_count_fv": self.union_count_fv,
            "union_area_new": self.union_count_new * self.node_area,
            "union_area_fv": self.union_count_fv * self.node_area,
            "containment_violations": self.containment_violations,
            "node_area": self.node_area,
        }


def _row_margins(diag: np.ndarray, offs: np.ndarray, zs: np.ndarray,
                 kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """Margins of one block row, split as by block_rows, at a batch of
    points. Zero blocks add exactly nothing to a margin and are skipped,
    so a tridiagonal row costs at most its two structural blocks."""
    offs = [b for b in offs if b.any()]
    radius = sum(norm(b, kind) for b in offs)
    m = diag.shape[0]
    if m == 1:
        dist = np.abs(diag[0, 0] - zs)
        with np.errstate(divide="ignore"):
            margin = np.where(dist == 0.0, np.inf, radius / np.where(dist == 0.0, 1.0, dist))
        return margin, margin.copy()

    npts = zs.shape[0]
    shifted = np.broadcast_to(diag, (npts, m, m)).copy()
    idx = np.arange(m)
    shifted[:, idx, idx] -= zs[:, None]
    # One solve_row per slice gives S^{-1} B_ij for every nonzero block,
    # and S^{-1} itself as a last block outside the two-norm.
    x = inv_norms = None
    if kind is NormKind.TWO:
        # (j, m, m) even when the row has no nonzero off-diagonal block.
        rhs = np.asarray(offs, dtype=np.complex128).reshape(-1, m, m)
        svals = np.linalg.svd(shifted, compute_uv=False)
        ok = ~singular_mask(svals)
        with np.errstate(divide="ignore"):
            inv_norms = 1.0 / svals[:, -1]
    else:
        # The SVD test runs only on suspect nodes. cond_2 <= m * cond in the
        # one, inf and Frobenius norms, so a node whose product stays below
        # 1e-2 / SINGULAR_SHIFT_RTOL passes it by a factor of 100; NaN and
        # inf are suspect, and so is a whole slice that LAPACK cannot solve.
        rhs = offs + [np.eye(m, dtype=np.complex128)]
        try:
            x = solve_row(shifted, rhs)
            inv_norms = batch_norm(x[:, -1], kind)
            suspect = ~(m * batch_norm(shifted, kind) * inv_norms
                        < 1e-2 / SINGULAR_SHIFT_RTOL)
        except np.linalg.LinAlgError:
            suspect = np.ones(npts, dtype=bool)
        ok = np.ones(npts, dtype=bool)
        if suspect.any():
            ok[suspect] = ~singular_mask(np.linalg.svd(shifted[suspect], compute_uv=False))
    if x is None:
        # Singular nodes are solved against I instead; their margins stay +inf.
        shifted[~ok] = np.eye(m)
        x = solve_row(shifted, rhs)
    if inv_norms is None:
        inv_norms = batch_norm(x[:, -1], kind)

    margins_new = np.full(npts, np.inf)
    margins_fv = np.full(npts, np.inf)
    margins_fv[ok] = inv_norms[ok] * radius
    margins_new[ok] = sum(batch_norm(x[:, j], kind)[ok] for j in range(len(offs)))
    return margins_new, margins_fv


def margins_at(a, z: complex, kind: NormKind) -> list[RegionQuery]:
    """Both margins of every block row at a single point."""
    zs = np.asarray([z], dtype=np.complex128)
    out = []
    for i, (diag, offs) in enumerate(zip(*block_rows(a))):
        mn, mf = _row_margins(diag, offs, zs, kind)
        out.append(RegionQuery(z=complex(z), row=i + 1,
                               margin_new=float(mn[0]), margin_fv=float(mf[0])))
    return out


def auto_box(a, kind: NormKind, pad: float = 0.1) -> tuple[float, float, float, float]:
    """Window covering the union of disks around each diagonal block's
    eigenvalues with that row's off-diagonal norm sum as radius."""
    re_lo = im_lo = np.inf
    re_hi = im_hi = -np.inf
    for diag, offs in zip(*block_rows(a)):
        radius = sum(norm(b, kind) for b in offs)
        eigs = eigenvalues_small(diag)
        re_lo = min(re_lo, float((eigs.real - radius).min()))
        re_hi = max(re_hi, float((eigs.real + radius).max()))
        im_lo = min(im_lo, float((eigs.imag - radius).min()))
        im_hi = max(im_hi, float((eigs.imag + radius).max()))
    pad_re = pad * (re_hi - re_lo)
    pad_im = pad * (im_hi - im_lo)
    if pad_re == 0.0:
        pad_re = 1.0
    if pad_im == 0.0:
        pad_im = 1.0
    return re_lo - pad_re, re_hi + pad_re, im_lo - pad_im, im_hi + pad_im


def eval_grid(a, box: tuple[float, float, float, float] | None,
              nx: int, ny: int, kind: NormKind) -> RegionGrid:
    """Evaluate both margins for every block row on an nx-by-ny grid.

    ``box`` is (re_min, re_max, im_min, im_max); None selects auto_box.
    Each block row is evaluated in slices of GRID_CHUNK // (k + 1) nodes
    for k off-diagonal slots per row; the (row, slice) tasks are spread
    over min(CPU count, task count) threads.
    """
    diag, offs = block_rows(a)
    if box is None:
        box = auto_box(a, kind)
    re_min, re_max, im_min, im_max = (float(v) for v in box)
    if not np.all(np.isfinite([re_min, re_max, im_min, im_max])):
        raise ValueError(f"box {box} has a non-finite bound")
    if not (re_min < re_max and im_min < im_max):
        raise ValueError(f"degenerate box {box}")
    if nx < 2 or ny < 2:
        raise ValueError("need nx >= 2 and ny >= 2")

    res = np.linspace(re_min, re_max, nx)
    ims = np.linspace(im_min, im_max, ny)
    zs = (res[None, :] + 1j * ims[:, None]).ravel()

    n = diag.shape[0]
    margins_new = np.empty((n, zs.size))
    margins_fv = np.empty((n, zs.size))

    # A node holds one solved block per off-diagonal slot and one for S^{-1}.
    chunk = max(1, GRID_CHUNK // (offs.shape[1] + 1))

    def fill(i: int, s: slice) -> None:
        margins_new[i, s], margins_fv[i, s] = _row_margins(diag[i], offs[i], zs[s], kind)

    slices = [slice(k, k + chunk) for k in range(0, zs.size, chunk)]
    tasks = [(i, s) for i in range(n) for s in slices]
    with ThreadPoolExecutor(min(os.cpu_count() or 1, len(tasks))) as pool:
        for f in [pool.submit(fill, i, s) for i, s in tasks]:
            f.result()

    return RegionGrid(
        re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max,
        nx=nx, ny=ny, norm_kind=kind,
        margins_new=margins_new.reshape(n, ny, nx),
        margins_fv=margins_fv.reshape(n, ny, nx))


def compare_regions(grid: RegionGrid) -> ComparisonSummary:
    """Count member nodes per row and for the unions, and check row-wise
    containment of the new set in the fv set."""
    mn = grid.member_new()
    mf = grid.member_fv()
    dx = (grid.re_max - grid.re_min) / (grid.nx - 1)
    dy = (grid.im_max - grid.im_min) / (grid.ny - 1)
    return ComparisonSummary(
        counts_new=tuple(int(c) for c in mn.sum(axis=(1, 2))),
        counts_fv=tuple(int(c) for c in mf.sum(axis=(1, 2))),
        union_count_new=int(mn.any(axis=0).sum()),
        union_count_fv=int(mf.any(axis=0).sum()),
        containment_violations=int((mn & ~mf).sum()),
        node_area=dx * dy)
