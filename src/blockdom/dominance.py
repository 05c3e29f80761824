"""Row block diagonal dominance tests.

Two row-wise conditions are computed per block row i:

  * generalized:  sum_{j != i} ||A_ii^{-1} A_ij||  <= 1   (strict: < 1)
  * norm-split:   sum_{j != i} ||A_ij||  <=  1 / ||A_ii^{-1}||

The norm-split condition implies the generalized one, and for 1x1 blocks
both reduce to classical row diagonal dominance. Strict generalized
dominance (``DominanceReport.strict``) certifies that the whole matrix is
nonsingular.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import NormKind, batch_norm, require_nonsingular, singular_mask, solve_row
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


def diag_solves(a) -> np.ndarray:
    """The C-contiguous (n, k+1, m, m) stack A_ii^{-1}[off-diagonal blocks
    of row i, I], with the row's blocks as ``block_rows`` splits them, from
    one ``solve_row``. Raises SingularError naming the first singular A_i."""
    diag, offs = block_rows(a)
    require_nonsingular(diag)
    return _solve_rows(diag, offs)


def _solve_rows(diag: np.ndarray, offs: np.ndarray) -> np.ndarray:
    eye = np.broadcast_to(np.eye(diag.shape[-1], dtype=np.complex128),
                          (diag.shape[0], 1) + diag.shape[1:])
    return np.ascontiguousarray(solve_row(diag, np.concatenate([offs, eye], axis=1)))


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

