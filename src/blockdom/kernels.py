"""Dense complex linear algebra primitives used by every other module.

Everything here operates on small square complex128 blocks, one at a
time or stacked as (..., m, m) arrays. Norms and stacked solves are
single numpy LAPACK calls over the whole stack: ``batch_norm`` is the one
batched norm, and ``solve_blocks`` the one stacked solve and inverse,
behind one scale-invariant singularity test on the singular values. A
singular block surfaces as a typed SingularError naming the block.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

# A block counts as singular when sigma_min falls at or below this
# multiple of sigma_max.
SINGULAR_SHIFT_RTOL = 1e-13


class NormKind(Enum):
    """Matrix norm selector shared across the package."""

    ONE = "one"
    INF = "inf"
    FRO = "fro"
    TWO = "two"


class SingularError(ValueError):
    """A matrix that must be inverted was singular to working precision."""

    def __init__(self, message: str, context: str | None = None):
        if context:
            message = f"{message} during {context}"
        super().__init__(message)
        self.context = context


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


def as_block(a) -> np.ndarray:
    """Validate a square matrix block and return it as complex128."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square 2-d block, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("blocks must be at least 1x1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("block contains non-finite entries")
    return arr


def batch_norm(stack, kind: NormKind) -> np.ndarray:
    """Norms of every block of an (..., m, m) stack, over the last two axes.

    The two-norm is the largest singular value from LAPACK. The Frobenius
    norm divides each block by its largest magnitude before squaring, so
    blocks near the ends of the exponent range neither underflow nor
    overflow.
    """
    a = np.asarray(stack, dtype=np.complex128)
    if kind is NormKind.ONE:
        return np.abs(a).sum(axis=-2).max(axis=-1)
    if kind is NormKind.INF:
        return np.abs(a).sum(axis=-1).max(axis=-1)
    if kind is NormKind.FRO:
        mag = np.abs(a)
        scale = mag.max(axis=(-2, -1), keepdims=True)
        safe = np.where(scale == 0.0, 1.0, scale)
        return scale[..., 0, 0] * np.sqrt(((mag / safe) ** 2).sum(axis=(-2, -1)))
    if kind is NormKind.TWO:
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    raise ValueError(f"unknown norm kind {kind!r}")


def norm(block, kind: NormKind) -> float:
    """Matrix norm of a block: max column sum, max row sum, Frobenius,
    or the spectral norm."""
    a = np.asarray(block, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("norm expects a 2-d block")
    if a.size == 0:
        raise ValueError("norm of an empty block is undefined")
    return float(batch_norm(a, kind))


def singular_mask(svals: np.ndarray) -> np.ndarray:
    """The singularity test, per block, from descending singular values
    (..., m): sigma_min <= SINGULAR_SHIFT_RTOL * sigma_max. Being
    relative, it passes 1e-200 * I and flags every zero block."""
    return svals[..., -1] <= SINGULAR_SHIFT_RTOL * svals[..., 0]


def solve_blocks(a, b=None, name: str = "A", first: int | None = 1) -> np.ndarray:
    """A_k^{-1} B_k for every block of the (..., m, m) stack ``a``, or the
    inverses A_k^{-1} when ``b`` is None; one LAPACK call for the stack.

    Blocks are numbered from ``first``; if any fails the singularity
    test, SingularError names the first as "{name}_{k} inversion", or as
    "{name} inversion" when ``first`` is None.
    """
    a = np.asarray(a, dtype=np.complex128)
    bad = np.flatnonzero(singular_mask(np.linalg.svd(a, compute_uv=False)))
    if bad.size:
        label = name if first is None else f"{name}_{first + int(bad[0])}"
        raise SingularError(
            f"singular matrix: sigma_min <= {SINGULAR_SHIFT_RTOL:g} sigma_max",
            context=f"{label} inversion")
    return np.linalg.inv(a) if b is None else np.linalg.solve(a, b)


def identity_norm(m: int, kind: NormKind) -> float:
    """Norm of the m-by-m identity: sqrt(m) for Frobenius, 1 otherwise."""
    if m < 1:
        raise ValueError("identity_norm needs m >= 1")
    if kind is NormKind.FRO:
        return float(np.sqrt(m))
    return 1.0


MAX_EIG_DIM = 64


def eigenvalues_small(block) -> np.ndarray:
    """Eigenvalues of a block of dimension at most 64, checked a posteriori.

    Every eigenpair must satisfy ||A v - lambda v|| <= 1e-8 ||A||_2;
    otherwise ConvergenceError names the first pair that misses it.
    """
    a = as_block(block)
    m = a.shape[0]
    if m > MAX_EIG_DIM:
        raise ValueError(f"eigenvalues_small caps dimension at {MAX_EIG_DIM}, got {m}")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    scale = norm(a, NormKind.TWO)
    tol = 1e-8 * scale if scale > 0.0 else 1e-8
    res = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    bad = np.flatnonzero(~(res <= tol))
    if bad.size:
        k = int(bad[0])
        raise ConvergenceError(
            f"eigenpair {k} residual {res[k]:.3e} above tolerance {tol:.3e}")
    return vals
