"""Exact inversion of block tridiagonal matrices.

``invert_block_tridiagonal`` builds the inverse Z from the chains L_i and
M_i of ``bounds.compute_chains`` (Meurant, SIAM J. Matrix Anal. Appl. 13,
1992): Z_ii is the inverse of the Schur complement
S_i = A_i - C_{i-1} L_{i-1} - B_i M_{i+1}, and Z_ij = -L_i Z_{i+1,j} above
the diagonal, Z_ij = -M_i Z_{i-1,j} below it. Under row block dominance
||L_i|| <= tau_i < 1 and ||M_i|| <= omega_i < 1, so nothing grows. It needs
nonsingular diagonal blocks A_i, chain matrices T_i, W_i and Schur
complements S_i, and names the first singular one.

``ikebe_factors`` and ``assemble_inverse`` are the classical four-sequence
form, Z_ij = U_i V_j for i <= j and Z_ij = Y_i X_j for i >= j, kept as a
public reference: it inverts the off-diagonal blocks, and its iterates
grow geometrically with n, so no production path uses it. Growth beyond
MAX_BLOCK_MAGNITUDE aborts with a diagnostic naming the offending step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import compute_chains
from .dominance import diag_solves
from .kernels import NormKind, batch_norm, norm, solve_blocks
from .structures import BlockTridiagonalMatrix, GeneralBlockMatrix

MAX_BLOCK_MAGNITUDE = 1e150


class RecurrenceOverflowError(RuntimeError):
    """An entry exceeded ``limit``: MAX_BLOCK_MAGNITUDE for a four-sequence
    iterate, the largest float over m for the chain inverse."""

    def __init__(self, step: str, magnitude: float, limit: float):
        cap = f" exceeds {limit:.4g}" if np.isfinite(magnitude) else ""
        super().__init__(
            f"recurrence overflow at {step}: max entry magnitude {magnitude:.3e}{cap}")
        self.step = step
        self.magnitude = magnitude


@dataclass(frozen=True)
class InverseFactors:
    """The four sequences, stacked (n, m, m); index k holds term k+1."""

    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True, eq=False)
class BlockInverse:
    """Assembled inverse as an (n, n, m, m) block grid.

    ``diag_consistency`` is set by ``assemble_inverse`` only: the largest
    entrywise difference between the two diagonal representations U_i V_i
    and Y_i X_i, relative to the largest diagonal-block entry. The chain
    inverse has one representation and leaves it None.
    """

    blocks: np.ndarray
    diag_consistency: float | None = None

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def m(self) -> int:
        return self.blocks.shape[2]

    def norm_grid(self, kind: NormKind) -> np.ndarray:
        """(n, n) array of block norms, cached per norm kind."""
        cache = getattr(self, "_norm_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_norm_cache", cache)
        if kind not in cache:
            grid = batch_norm(self.blocks, kind)
            grid.setflags(write=False)
            cache[kind] = grid
        return cache[kind]

    def to_general(self) -> GeneralBlockMatrix:
        return GeneralBlockMatrix(blocks=self.blocks)

    def to_dense(self) -> np.ndarray:
        n, m = self.n, self.m
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m).copy()


def _guard(block: np.ndarray, step: str) -> np.ndarray:
    mag = float(np.abs(block).max())
    if mag > MAX_BLOCK_MAGNITUDE:
        raise RecurrenceOverflowError(step, mag, MAX_BLOCK_MAGNITUDE)
    return block


def ikebe_factors(a: BlockTridiagonalMatrix) -> InverseFactors:
    """Run the four recurrences.

    Raises SingularError (naming the inverted block or seed) if an
    off-diagonal block or a seed matrix is singular, and
    RecurrenceOverflowError on geometric growth of the iterates.
    """
    n, m = a.n, a.m
    eye = np.eye(m, dtype=np.complex128)
    if n == 1:
        v0 = solve_blocks(a.diag)[0]
        return InverseFactors(u=np.asarray([eye]), v=np.asarray([v0]),
                              x=np.asarray([eye]), y=np.asarray([v0]))

    # sup[k] is block B_{k+1}, sub[k] is block C_{k+1} in 1-based terms.
    sup_inv = solve_blocks(a.sup, name="B")
    sub_inv = solve_blocks(a.sub, name="C")

    u = [None] * n
    u[0] = eye
    u[1] = _guard(-sup_inv[0] @ (a.diag[0] @ u[0]), "U_2")
    for k in range(2, n):
        u[k] = _guard(-sup_inv[k - 1] @ (a.sub[k - 2] @ u[k - 2] + a.diag[k - 1] @ u[k - 1]),
                      f"U_{k + 1}")

    v = [None] * n
    seed = a.diag[n - 1] @ u[n - 1] + a.sub[n - 2] @ u[n - 2]
    v[n - 1] = _guard(solve_blocks(seed, name="V_n seed", first=None), "V_n")
    v[n - 2] = _guard(-(v[n - 1] @ a.diag[n - 1]) @ sup_inv[n - 2], f"V_{n - 1}")
    for k in range(n - 3, -1, -1):
        v[k] = _guard(-(v[k + 1] @ a.diag[k + 1] + v[k + 2] @ a.sub[k + 1]) @ sup_inv[k],
                      f"V_{k + 1}")

    x = [None] * n
    x[0] = eye
    x[1] = _guard(-(x[0] @ a.diag[0]) @ sub_inv[0], "X_2")
    for k in range(2, n):
        x[k] = _guard(-(x[k - 2] @ a.sup[k - 2] + x[k - 1] @ a.diag[k - 1]) @ sub_inv[k - 1],
                      f"X_{k + 1}")

    y = [None] * n
    seed = x[n - 1] @ a.diag[n - 1] + x[n - 2] @ a.sup[n - 2]
    y[n - 1] = _guard(solve_blocks(seed, name="Y_n seed", first=None), "Y_n")
    y[n - 2] = _guard(-sub_inv[n - 2] @ (a.diag[n - 1] @ y[n - 1]), f"Y_{n - 1}")
    for k in range(n - 3, -1, -1):
        y[k] = _guard(-sub_inv[k] @ (a.diag[k + 1] @ y[k + 1] + a.sup[k + 1] @ y[k + 2]),
                      f"Y_{k + 1}")

    return InverseFactors(u=np.asarray(u), v=np.asarray(v),
                          x=np.asarray(x), y=np.asarray(y))


def assemble_inverse(factors: InverseFactors) -> BlockInverse:
    """Build the full block grid of the inverse from the four sequences."""
    n, m = factors.n, factors.m
    z = np.zeros((n, n, m, m), dtype=np.complex128)
    consistency = 0.0
    scale = 0.0
    for i in range(n):
        for j in range(n):
            if i <= j:
                z[i, j] = factors.u[i] @ factors.v[j]
            else:
                z[i, j] = factors.y[i] @ factors.x[j]
        alt = factors.y[i] @ factors.x[i]
        consistency = max(consistency, float(np.abs(z[i, i] - alt).max()))
        scale = max(scale, float(np.abs(z[i, i]).max()))
    rel = consistency / scale if scale > 0.0 else consistency
    return BlockInverse(blocks=z, diag_consistency=rel)


def invert_block_tridiagonal(a: BlockTridiagonalMatrix,
                             solves: np.ndarray | None = None) -> BlockInverse:
    """The inverse from the L/M chains: all n Schur complements in one
    stacked inverse, then one batched product per block row above the
    diagonal and one per block row below it.

    Raises SingularError naming the first singular A_i, T_i, W_i or S_i,
    and RecurrenceOverflowError naming Z if an entry exceeds the largest
    float over m, past which a block norm of Z can overflow; nothing grows
    along the chains, so no tighter cap applies.
    ``solves`` is ``diag_solves(a)`` when the caller has it already.
    """
    n, m = a.n, a.m
    # Solved here even for n = 1, where there is no chain, so that a
    # singular A_1 is named as such.
    chains = compute_chains(a, diag_solves(a) if solves is None else solves)
    l, mm = chains.l_blocks, chains.m_blocks
    schur = a.diag.copy()
    schur[1:] -= a.sub @ l
    schur[:-1] -= a.sup @ mm
    z = np.zeros((n, n, m, m), dtype=np.complex128)
    idx = np.arange(n)
    z[idx, idx] = solve_blocks(schur, name="S")
    for i in range(n - 2, -1, -1):
        z[i, i + 1:] = -l[i] @ z[i + 1, i + 1:]
    for i in range(1, n):
        z[i, :i] = -mm[i - 1] @ z[i - 1, :i]
    # A block's one, inf, Frobenius and two-norm are each at most m times
    # its largest entry, so under this cap every ||Z_ij|| is finite.
    limit = np.finfo(np.float64).max / m
    mag = float(np.abs(z).max())
    if not mag <= limit:
        raise RecurrenceOverflowError("Z", mag, limit)
    return BlockInverse(blocks=z)


def residual(a: BlockTridiagonalMatrix, z: BlockInverse, kind: NormKind) -> float:
    """||Z A - I|| in the requested norm, computed densely."""
    dense_a = a.to_dense()
    dense_z = z.to_dense()
    eye = np.eye(dense_a.shape[0], dtype=np.complex128)
    return norm(dense_z @ dense_a - eye, kind)


def diag_residual(a: BlockTridiagonalMatrix, z: BlockInverse, kind: NormKind) -> float:
    """max_i ||(Z A - I)_ii|| from the blocks alone, where
    (Z A)_ii = Z_{i,i-1} B_{i-1} + Z_ii A_i + Z_{i,i+1} C_i."""
    idx = np.arange(a.n)
    r = z.blocks[idx, idx] @ a.diag - np.eye(a.m, dtype=np.complex128)
    r[1:] += z.blocks[idx[1:], idx[:-1]] @ a.sup
    r[:-1] += z.blocks[idx[:-1], idx[1:]] @ a.sub
    return float(batch_norm(r, kind).max())


def condition_estimate(a: BlockTridiagonalMatrix, z: BlockInverse,
                       kind: NormKind = NormKind.TWO) -> float:
    """||A|| ||Z|| with the assembled inverse standing in for A^{-1}."""
    return norm(a.to_dense(), kind) * norm(z.to_dense(), kind)
