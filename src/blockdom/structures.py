"""Block matrix containers and constructors for the worked examples.

Blocks are stored stacked: a block tridiagonal matrix with n block rows
of block size m keeps its diagonal as an (n, m, m) array and the two
off-diagonals as (n-1, m, m) arrays. Python indices are 0-based; the
mathematical block rows 1..n map to array indices 0..n-1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _stack(blocks, name: str, count: int, m: int) -> np.ndarray:
    arr = np.asarray(blocks, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape != (count, m, m):
        raise ValueError(f"{name} must have shape ({count}, {m}, {m}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BlockTridiagonalMatrix:
    """Square block tridiagonal matrix.

    ``diag[i]`` is the i-th diagonal block, ``sup[i]`` the block coupling
    block row i to row i+1, ``sub[i]`` the block coupling row i+1 to row i.
    """

    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=np.complex128)
        if d.ndim != 3 or d.shape[1] != d.shape[2] or d.shape[0] < 1:
            raise ValueError(f"diag must be (n, m, m) with n >= 1, got {d.shape}")
        n, m = d.shape[0], d.shape[1]
        if m < 1:
            raise ValueError("block size must be at least 1")
        object.__setattr__(self, "diag", _stack(d, "diag", n, m))
        object.__setattr__(self, "sup", _stack(self.sup, "sup", n - 1, m))
        object.__setattr__(self, "sub", _stack(self.sub, "sub", n - 1, m))

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def m(self) -> int:
        return self.diag.shape[1]

    def to_dense(self) -> np.ndarray:
        n, m = self.n, self.m
        out = np.zeros((n * m, n * m), dtype=np.complex128)
        self._fill(out.reshape(n, m, n, m).transpose(0, 2, 1, 3))
        return out

    def to_general(self) -> "GeneralBlockMatrix":
        n, m = self.n, self.m
        grid = np.zeros((n, n, m, m), dtype=np.complex128)
        self._fill(grid)
        return GeneralBlockMatrix(blocks=grid)

    def _fill(self, grid: np.ndarray) -> None:
        """Write the blocks into an (n, n, m, m) block grid (or a view)."""
        i = np.arange(self.n)
        grid[i, i] = self.diag
        grid[i[:-1], i[1:]] = self.sup
        grid[i[1:], i[:-1]] = self.sub


@dataclass(frozen=True)
class GeneralBlockMatrix:
    """Square matrix partitioned into an n-by-n grid of m-by-m blocks."""

    blocks: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.blocks, dtype=np.complex128)
        if g.ndim != 4 or g.shape[0] != g.shape[1] or g.shape[2] != g.shape[3]:
            raise ValueError(f"blocks must be (n, n, m, m), got {g.shape}")
        if g.shape[0] < 1 or g.shape[2] < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if not np.all(np.isfinite(g)):
            raise ValueError("blocks contain non-finite entries")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "blocks", g)

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def m(self) -> int:
        return self.blocks.shape[2]

    def to_dense(self) -> np.ndarray:
        n, m = self.n, self.m
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m).copy()


def block_rows(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a block matrix into block rows: the (n, m, m) diagonal blocks
    and an (n, k, m, m) stack of each row's off-diagonal blocks, zero where
    absent. A tridiagonal row holds C_{i-1} and B_i (k = 2, C_0 = B_n = 0);
    a general row holds its whole block row, diagonal slot zeroed (k = n)."""
    if isinstance(a, BlockTridiagonalMatrix):
        zero = np.zeros((1, a.m, a.m), dtype=np.complex128)
        return a.diag, np.stack([np.concatenate([zero, a.sub]),
                                 np.concatenate([a.sup, zero])], axis=1)
    if isinstance(a, GeneralBlockMatrix):
        idx = np.arange(a.n)
        offs = a.blocks.copy()
        offs[idx, idx] = 0.0
        return a.blocks[idx, idx], offs
    raise TypeError(f"unsupported matrix type {type(a).__name__}")


def build_tridiag_toeplitz(k: int, sub, diag, sup) -> np.ndarray:
    """Dense k-by-k Toeplitz tridiagonal matrix with the given scalars."""
    if k < 1:
        raise ValueError("need k >= 1")
    out = np.zeros((k, k), dtype=np.complex128)
    np.fill_diagonal(out, diag)
    for i in range(k - 1):
        out[i + 1, i] = sub
        out[i, i + 1] = sup
    return out


def kron_sum(t) -> BlockTridiagonalMatrix:
    """Block tridiagonal matrix T (x) I + I (x) T of a Toeplitz tridiagonal T.

    The result has k block rows of size k: diagonal blocks T + diag(T)[0] I
    shifted, off-diagonal blocks sub*I and sup*I.
    """
    a = np.asarray(t, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    k = a.shape[0]
    sub = a[1, 0] if k > 1 else 0.0
    sup = a[0, 1] if k > 1 else 0.0
    if not np.array_equal(a, build_tridiag_toeplitz(k, sub, a[0, 0], sup)):
        raise ValueError("kron_sum needs a Toeplitz tridiagonal input")
    eye = np.eye(k, dtype=np.complex128)
    # Blocks are sliced out of the dense sum, which keeps the signed zeros
    # that c*I blocks built directly would not.
    g = (np.kron(a, eye) + np.kron(eye, a)).reshape(k, k, k, k).transpose(0, 2, 1, 3)
    i = np.arange(k)
    return BlockTridiagonalMatrix(diag=g[i, i], sup=g[i[:-1], i[1:]], sub=g[i[1:], i[:-1]])


def block_tridiag_from_stencils(n: int, m: int, sub_stencil, diag_stencil,
                                sup_stencil) -> BlockTridiagonalMatrix:
    """Block tridiagonal matrix whose blocks are themselves Toeplitz
    tridiagonal, given as (sub, diag, sup) scalar triples."""
    if n < 1:
        raise ValueError("need n >= 1")
    d = build_tridiag_toeplitz(m, *diag_stencil)
    lo = build_tridiag_toeplitz(m, *sub_stencil)
    hi = build_tridiag_toeplitz(m, *sup_stencil)
    return BlockTridiagonalMatrix(
        diag=np.repeat(d[None, :, :], n, axis=0),
        sup=np.repeat(hi[None, :, :], n - 1, axis=0),
        sub=np.repeat(lo[None, :, :], n - 1, axis=0))


def left_scale_blockrows(a: BlockTridiagonalMatrix, scales) -> BlockTridiagonalMatrix:
    """Multiply block row i by the nonzero scalar scales[i] (diag(R) (x) I
    acting from the left)."""
    r = np.asarray(scales, dtype=np.complex128)
    if r.ndim != 1 or r.shape[0] != a.n:
        raise ValueError(f"need exactly {a.n} scale factors, got shape {r.shape}")
    if np.any(r == 0):
        raise ValueError("scale factors must be nonzero")
    return BlockTridiagonalMatrix(
        diag=a.diag * r[:, None, None],
        sup=a.sup * r[:-1, None, None],
        sub=a.sub * r[1:, None, None])


# Multiplier and increment of Knuth's MMIX linear congruential generator.
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MOD = 2 ** 64


def build_random_diag(n: int, lo: int, hi: int, seed: int) -> list[int]:
    """Deterministic sequence of n integers in [lo, hi] from a 64-bit LCG.

    The generator is x_{k+1} = (6364136223846793005 x_k + 1442695040888963407)
    mod 2^64 seeded with x_0 = seed; each draw keeps the top 31 bits of the
    next state and reduces them modulo the range width. Documented so runs
    can be reproduced outside this package.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    x = seed % _LCG_MOD
    out = []
    for _ in range(n):
        x = (_LCG_MUL * x + _LCG_INC) % _LCG_MOD
        out.append(lo + (x >> 33) % span)
    return out
