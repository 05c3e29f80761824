"""A priori decay bounds on the block norms of the inverse.

For a row block diagonally dominant block tridiagonal matrix A with
inverse Z, the coefficient tables tau and omega bound the off-diagonal
decay of Z:

    ||Z_ij|| <= ||Z_jj|| * tau_{i,t} ... tau_{j-1,t}       for i < j,
    ||Z_ij|| <= ||Z_jj|| * omega_{j+1,t} ... omega_{i,t}   for i > j,

together with a two-sided estimate of the diagonal block norms. The
refinement step t runs from 1 to n-1; coefficients never increase with t,
so every refinement step tightens (or preserves) the bounds.

Indices in formulas are 1-based to match the recurrences; arrays store
row i at index i-1 and step t at index t-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dominance import diag_solves
from .kernels import NormKind, batch_norm, identity_norm, solve_blocks
from .matrixio import refill_floats
from .structures import BlockTridiagonalMatrix

if TYPE_CHECKING:
    from .inverse import BlockInverse


class DominanceViolation(ValueError):
    """A refinement denominator dropped to zero or below."""

    def __init__(self, row: int, step: int, denominator: float, which: str):
        super().__init__(
            f"{which} denominator {denominator:.6g} <= 0 in row {row} at step {step}; "
            "the matrix is not row block diagonally dominant enough")
        self.row = row
        self.step = step


@dataclass(frozen=True)
class TauOmegaTable:
    """Refined decay coefficients; tau[i-1, t-1] holds tau_{i,t}. It also
    carries the block norms ||A_i||, ||A_i^{-1}||, ||B_i||, ||C_i|| of its
    matrix, which the bounds use."""

    norm_kind: NormKind
    tau: np.ndarray
    omega: np.ndarray
    diag_norms: np.ndarray
    inv_diag_norms: np.ndarray
    sup_norms: np.ndarray
    sub_norms: np.ndarray

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def t_max(self) -> int:
        return self.tau.shape[1]

    def tau_at(self, i: int, t: int) -> float:
        """tau_{i,t} with the boundary convention tau_0 = 0."""
        if not 0 <= i <= self.n:
            raise IndexError(f"row {i} out of range 0..{self.n}")
        if not 1 <= t <= self.t_max:
            raise IndexError(f"step {t} out of range 1..{self.t_max}")
        return 0.0 if i == 0 else float(self.tau[i - 1, t - 1])

    def omega_at(self, i: int, t: int) -> float:
        """omega_{i,t} with the boundary convention omega_{n+1} = 0."""
        if not 1 <= i <= self.n + 1:
            raise IndexError(f"row {i} out of range 1..{self.n + 1}")
        if not 1 <= t <= self.t_max:
            raise IndexError(f"step {t} out of range 1..{self.t_max}")
        return 0.0 if i == self.n + 1 else float(self.omega[i - 1, t - 1])

    def rho(self, t: int) -> tuple[float, float]:
        """(max_i tau_{i,t}, max_i omega_{i,t}): per-step decay rates."""
        return float(self.tau[:, t - 1].max()), float(self.omega[:, t - 1].max())


def compute_tau_omega(a: BlockTridiagonalMatrix, kind: NormKind,
                      t_max: int | None = None,
                      solves: np.ndarray | None = None) -> TauOmegaTable:
    """Base coefficients (t=1) and their refinements up to t_max.

    t_max defaults to n-1 (clamped to at least 1). Raises
    DominanceViolation when a denominator is nonpositive while its
    numerator is nonzero (the lowest step, then the lowest row, tau
    before omega), and SingularError for singular diagonal blocks.
    ``solves`` is ``diag_solves(a)`` when the caller has it already.
    """
    n = a.n
    if t_max is None:
        t_max = max(1, n - 1)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")

    # nab[i-1] = ||A_i^{-1} B_i||  (zero for i = n),
    # nac[i-1] = ||A_i^{-1} C_{i-1}||  (zero for i = 1).
    norms = batch_norm(diag_solves(a) if solves is None else solves, kind)
    nac, nab, inv_norms = norms[:, 0], norms[:, 1], norms[:, 2]

    # tau_{i,t} comes from tau_{i-1,t-1} and omega_{i,t} from omega_{i+1,t-1}.
    # With omega's rows reversed both read the row above at step t-1, so
    # x[0] holds tau and x[1] omega upside down. Step t recomputes rows
    # t.. of both (in x's order); the other rows keep step t-1. A zero
    # numerator gives a zero coefficient regardless of the denominator;
    # only rows that actually couple need den > 0.
    num, coef = np.stack([nab, nac[::-1]]), np.stack([nac, nab[::-1]])
    live = num != 0.0
    x = np.zeros((2, n, t_max))
    for t in range(1, t_max + 1):
        lo = t - 1
        if t == 1:
            den = 1.0 - coef
        else:
            x[:, :, t - 1] = x[:, :, t - 2]
            den = 1.0 - coef[:, lo:] * x[:, lo - 1:n - 1, t - 2]
        # fmin skips NaN, for which den <= 0 is false as well.
        if np.fmin.reduce(den, axis=None, where=live[:, lo:], initial=np.inf) <= 0.0:
            # The first violation: the lowest row, tau before omega.
            bad = live[:, lo:] & (den <= 0.0)
            tau_rows = lo + np.flatnonzero(bad[0])
            omega_rows = n - 1 - lo - np.flatnonzero(bad[1])   # descending
            if tau_rows.size and (not omega_rows.size or tau_rows[0] <= omega_rows[-1]):
                raise DominanceViolation(int(tau_rows[0]) + 1, t,
                                         float(den[0, tau_rows[0] - lo]), "tau")
            raise DominanceViolation(int(omega_rows[-1]) + 1, t,
                                     float(den[1, n - 1 - lo - omega_rows[-1]]), "omega")
        np.divide(num[:, lo:], den, out=x[:, lo:, t - 1], where=live[:, lo:])
    tau, omega = x[0], x[1, ::-1]
    return TauOmegaTable(
        norm_kind=kind, tau=tau, omega=omega,
        diag_norms=batch_norm(a.diag, kind), inv_diag_norms=inv_norms,
        sup_norms=batch_norm(a.sup, kind), sub_norms=batch_norm(a.sub, kind))


@dataclass(frozen=True)
class ChainFactors:
    """Matrix chains whose norms the tau/omega coefficients bound.

    l_blocks[k] holds L_{k+1} for k = 0..n-2 and m_blocks[k] holds M_{k+2}.
    """

    l_blocks: np.ndarray
    m_blocks: np.ndarray

    def L(self, i: int) -> np.ndarray:
        return self.l_blocks[i - 1]

    def M(self, i: int) -> np.ndarray:
        return self.m_blocks[i - 2]


def compute_chains(a: BlockTridiagonalMatrix,
                   solves: np.ndarray | None = None) -> ChainFactors:
    """Forward chain L_i (i = 1..n-1) and backward chain M_i (i = 2..n).

    L_1 = A_1^{-1} B_1 and L_i = T_i^{-1} A_i^{-1} B_i with
    T_i = I - A_i^{-1} C_{i-1} L_{i-1}; the M chain mirrors this from
    M_n = A_n^{-1} C_{n-1} with W_i = I - A_i^{-1} B_i M_{i+1}. A singular
    T_i or W_i raises SingularError naming it. The blocks of the inverse
    satisfy Z_ij = -L_i Z_{i+1,j} for i < j and Z_ij = -M_i Z_{i-1,j} for
    i > j. ``solves`` is ``diag_solves(a)`` when the caller has it already.
    """
    n, m = a.n, a.m
    eye = np.eye(m, dtype=np.complex128)
    if n == 1:
        empty = np.zeros((0, m, m), dtype=np.complex128)
        return ChainFactors(empty, empty)

    # ac[i-1] = A_i^{-1} C_{i-1} and ab[i-1] = A_i^{-1} B_i.
    x = diag_solves(a) if solves is None else solves
    ac, ab = x[:, 0], x[:, 1]

    l = np.empty((n - 1, m, m), dtype=np.complex128)
    l[0] = ab[0]
    for i in range(2, n):
        l[i - 1] = solve_blocks(eye - ac[i - 1] @ l[i - 2], ab[i - 1], "T", i)

    mm = np.empty((n - 1, m, m), dtype=np.complex128)
    mm[n - 2] = ac[n - 1]
    for i in range(n - 1, 1, -1):
        mm[i - 2] = solve_blocks(eye - ab[i - 1] @ mm[i - 1], ac[i - 1], "W", i)

    return ChainFactors(l_blocks=l, m_blocks=mm)


@dataclass(frozen=True)
class BoundsReport:
    """Bounds, validity flags and relative errors at one refinement step.

    ``upper[i-1, j-1]`` bounds ||Z_ij||; on the diagonal it is the upper
    estimate of ||Z_ii|| and is +inf with ``diag_upper_valid[i-1]`` False
    when the estimate's denominator is nonpositive. ``e_upper`` holds
    (u - ||Z||)/u with NaN where undefined; ``max_eu`` is its largest
    finite off-diagonal entry (None when there is none).
    """

    t: int
    norm_kind: NormKind
    upper: np.ndarray
    lower: np.ndarray
    diag_upper_valid: np.ndarray
    z_norms: np.ndarray | None
    e_upper: np.ndarray | None
    e_lower: np.ndarray | None
    max_eu: float | None
    max_el: float | None
    rho1: float
    rho2: float
    anchored_on_inverse: bool

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    def summary_dict(self) -> dict:
        return {
            "t": self.t,
            "max_Eu": self.max_eu,
            "max_El": self.max_el,
            "rho1": self.rho1,
            "rho2": self.rho2,
        }

    def write_csv(self, path, prev: CsvText | None = None) -> CsvText:
        """One line per block (i, j), row-major; norm_Zij and E_u are nan
        without the computed inverse, and valid is 0 where u_ij is not finite.

        ``prev`` is what the previous step's call returned: the cells whose
        bits it already holds keep its text. Returns this file's text for
        the next step.
        """
        n = self.n
        missing = np.full((n, n), np.nan)
        columns = np.stack([missing if self.z_norms is None else self.z_norms, self.upper,
                            np.isfinite(self.upper),
                            missing if self.e_upper is None else self.e_upper], axis=-1)
        if prev is None or len(prev.parts) != 2 * columns.size + 1:
            # valid takes a float slot: "%.17g" prints 1.0 and 0.0 as 1 and 0.
            parts = [","] * (2 * columns.size + 1)
            parts[0::8] = (["i,j,norm_Zij,u_ij,valid,E_u\n1,1,"]
                           + [f"\n{k // n + 1},{k % n + 1}," for k in range(1, n * n)]
                           + ["\n"])
            prev_bits = None
        else:
            parts, prev_bits = list(prev.parts), prev.bits
        bits = refill_floats(parts, columns, prev_bits)
        with open(path, "w") as fh:
            fh.write("".join(parts))
        return CsvText(parts=parts, bits=bits)


@dataclass(frozen=True)
class CsvText:
    """The text of one bounds_t<T>.csv in pieces: fixed text (the i,j
    columns and the separators) at even positions of ``parts``, the text
    of the float cells at odd ones, and the bits of those floats."""

    parts: list
    bits: np.ndarray


def compute_bounds(a: BlockTridiagonalMatrix, z: BlockInverse | None,
                   table: TauOmegaTable, t: int,
                   anchor_from_inverse: bool = True) -> BoundsReport:
    """Evaluate the decay bounds at refinement step t.

    With ``anchor_from_inverse`` the off-diagonal bounds are anchored on
    the computed ||Z_jj||; otherwise on the a priori diagonal upper
    estimates, which makes the report independent of z (z may be None,
    dropping the relative-error fields).
    """
    if not 1 <= t <= table.t_max:
        raise ValueError(f"step t={t} outside table range 1..{table.t_max}")
    if anchor_from_inverse and z is None:
        raise ValueError("anchor_from_inverse requires the computed inverse")
    n, m = a.n, a.m
    kind = table.norm_kind
    eye_n = identity_norm(m, kind)
    na, inv_na = table.diag_norms, table.inv_diag_norms
    nb, nc = table.sup_norms, table.sub_norms

    tau, omega = table.tau[:, t - 1], table.omega[:, t - 1]

    # Diagonal sandwich: tau_{i-1,t} ||C_{i-1}|| and omega_{i+1,t} ||B_i||
    # vanish at the corners.
    tail = np.zeros(n)
    tail[1:] += tau[:-1] * nc
    tail[:-1] += omega[1:] * nb
    lower = eye_n / (na + tail)
    den = 1.0 / inv_na - tail
    diag_valid = den > 0.0
    diag_upper = np.full(n, np.inf)
    diag_upper[diag_valid] = eye_n / den[diag_valid]

    z_norms = None if z is None else z.norm_grid(kind)
    anchor = z_norms.diagonal() if anchor_from_inverse else diag_upper

    # prods[i-1, j-1] is tau_i ... tau_{j-1} above the diagonal and
    # omega_{j+1} ... omega_i below it, multiplied in that order.
    prods = np.ones((n, n))
    for k in range(n - 1):
        prods[k, k + 1:] = np.cumprod(tau[k:-1])
        prods[k + 1:, k] = np.cumprod(omega[k + 1:])
    upper = np.full((n, n), np.inf)
    finite = ~np.isinf(anchor)
    upper[:, finite] = anchor[finite] * prods[:, finite]
    np.fill_diagonal(upper, diag_upper)

    e_upper = None
    e_lower = None
    max_eu = None
    max_el = None
    if z is not None:
        e_upper = np.full((n, n), np.nan)
        pos = np.isfinite(upper) & (upper > 0.0)
        e_upper[pos] = (upper[pos] - z_norms[pos]) / upper[pos]
        e_upper[np.isfinite(upper) & (upper <= 0.0) & (z_norms == 0.0)] = 0.0
        zd = z_norms.diagonal()
        e_lower = np.full(n, np.nan)
        pos = zd > 0.0
        e_lower[pos] = (zd[pos] - lower[pos]) / zd[pos]
        off = ~np.eye(n, dtype=bool) & np.isfinite(e_upper)
        if off.any():
            max_eu = float(e_upper[off].max())
        if np.isfinite(e_lower).any():
            max_el = float(np.nanmax(e_lower))

    rho1, rho2 = table.rho(t)
    return BoundsReport(
        t=t, norm_kind=kind, upper=upper, lower=lower,
        diag_upper_valid=diag_valid, z_norms=z_norms,
        e_upper=e_upper, e_lower=e_lower, max_eu=max_eu, max_el=max_el,
        rho1=rho1, rho2=rho2, anchored_on_inverse=anchor_from_inverse)

