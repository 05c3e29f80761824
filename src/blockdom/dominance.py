"""Row block diagonal dominance tests and the nonsingularity certificate.

Two row-wise conditions are computed per block row i:

  * generalized:  sum_{j != i} ||A_ii^{-1} A_ij||  <= 1   (strict: < 1)
  * norm-split:   sum_{j != i} ||A_ij||  <=  1 / ||A_ii^{-1}||

The norm-split condition implies the generalized one, and for 1x1 blocks
both reduce to classical row diagonal dominance. Strict generalized
dominance certifies that the whole matrix is nonsingular.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import NormKind, batch_norm, singular_mask, solve_blocks
from .structures import block_rows


@dataclass(frozen=True)
class DominanceReport:
    norm_kind: NormKind
    row_sums: np.ndarray        # generalized row sums; +inf on singular rows
    fv_margins: np.ndarray      # sum ||A_ij|| - 1/||A_ii^{-1}||; +inf on singular rows
    singular_rows: tuple[int, ...]  # 1-based rows with singular diagonal block
    dominant: bool
    strict: bool
    fv_dominant: bool

    def to_json_dict(self) -> dict:
        return {
            "norm": self.norm_kind.value,
            "row_sums": [float(v) for v in self.row_sums],
            "fv_margins": [float(v) for v in self.fv_margins],
            "singular_rows": list(self.singular_rows),
            "dominant": self.dominant,
            "strict": self.strict,
            "fv_dominant": self.fv_dominant,
        }


@dataclass(frozen=True)
class Certificate:
    """Proof of nonsingularity by strict row block diagonal dominance."""

    report: DominanceReport
    reason: str


@dataclass(frozen=True)
class Inconclusive:
    """The dominance test did not certify nonsingularity."""

    report: DominanceReport | None
    reason: str


def diag_solves(a) -> np.ndarray:
    """The (n, k+1, m, m) stack A_ii^{-1}[off-diagonal blocks of row i, I],
    with the row's blocks as ``block_rows`` splits them, from one stacked
    solve. Raises SingularError naming the first singular A_i."""
    diag, offs = block_rows(a)
    return _solve_rows(diag, offs)


def _solve_rows(diag: np.ndarray, offs: np.ndarray) -> np.ndarray:
    eye = np.broadcast_to(np.eye(diag.shape[-1], dtype=np.complex128),
                          (diag.shape[0], 1) + diag.shape[1:])
    return solve_blocks(diag[:, None], np.concatenate([offs, eye], axis=1))


def check_row_block_dominance(a, kind: NormKind,
                              solves: np.ndarray | None = None) -> DominanceReport:
    """Evaluate both dominance conditions for all block rows at once.

    ``solves`` is ``diag_solves(a)`` when the caller has it already; a
    matrix with a singular diagonal block has none, and without it the
    singular rows are recorded here rather than raised.
    """
    diag, offs = block_rows(a)
    singular = (np.zeros(a.n, dtype=bool) if solves is not None
                else singular_mask(np.linalg.svd(diag, compute_uv=False)))
    ok = ~singular
    row_sums = np.full(a.n, np.inf)
    fv_margins = np.full(a.n, np.inf)
    if ok.any():
        # The last column of norms is ||A_ii^{-1}||.
        norms = batch_norm(_solve_rows(diag[ok], offs[ok]) if solves is None else solves, kind)
        row_sums[ok] = norms[:, :-1].sum(axis=1)
        fv_margins[ok] = batch_norm(offs[ok], kind).sum(axis=1) - 1.0 / norms[:, -1]
    nonsingular = not singular.any()
    return DominanceReport(
        norm_kind=kind,
        row_sums=row_sums,
        fv_margins=fv_margins,
        singular_rows=tuple(int(i) + 1 for i in np.flatnonzero(singular)),
        dominant=nonsingular and bool(np.all(row_sums <= 1.0)),
        strict=nonsingular and bool(np.all(row_sums < 1.0)),
        fv_dominant=nonsingular and bool(np.all(fv_margins <= 0.0)),
    )


def certify_nonsingular(a, kind: NormKind) -> Certificate | Inconclusive:
    """Certificate of nonsingularity when strict dominance holds."""
    report = check_row_block_dominance(a, kind)
    if report.singular_rows:
        rows = ", ".join(str(r) for r in report.singular_rows)
        return Inconclusive(report, f"diagonal block(s) singular in row(s) {rows}")
    if report.strict:
        worst = float(report.row_sums.max())
        return Certificate(
            report,
            f"strict row block diagonal dominance: max row sum {worst:.6g} < 1")
    worst_rows = [i + 1 for i, s in enumerate(report.row_sums) if s >= 1.0]
    return Inconclusive(
        report,
        f"row sum(s) >= 1 in row(s) {', '.join(str(r) for r in worst_rows)}")
