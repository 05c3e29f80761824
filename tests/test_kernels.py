import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdom import (ConvergenceError, NormKind, SingularError, batch_norm,
                      eigenvalues_small, identity_norm, norm, solve_blocks)

from blockdom.kernels import solve_row

from helpers import ALL_KINDS, NP_ORD, np_norm, random_block


class TestLU:
    """solve_blocks factors each block by LAPACK's pivoted LU (getrf)."""

    def test_zero_matrix_singular(self):
        with pytest.raises(SingularError, match="A_1 inversion"):
            solve_blocks(np.zeros((2, 2)))

    def test_rank_deficient_singular(self):
        a = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(SingularError, match="A_2 inversion"):
            solve_blocks(a)

    def test_context_in_message(self):
        with pytest.raises(SingularError, match="B_1 inversion"):
            solve_blocks(np.zeros((2, 2)), name="B")

    def test_solve_vector_and_matrix(self):
        rng = np.random.default_rng(6)
        a = random_block(rng, 4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.allclose(a @ solve_blocks(a, b), b, atol=1e-12)
        bm = random_block(rng, 4)
        assert np.allclose(a @ solve_blocks(a, bm), bm, atol=1e-12)

    def test_scale_invariant_threshold(self):
        # A tiny but perfectly conditioned matrix must not be flagged.
        inv = solve_blocks(1e-200 * np.eye(3))
        assert inv.shape == (3, 3)


class TestInvert:
    def test_identity(self):
        assert np.array_equal(solve_blocks(np.eye(4)), np.eye(4))

    def test_hand_case(self):
        inv = solve_blocks(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(inv, np.array([[1.0, -1.0], [-1.0, 2.0]]), atol=1e-14)

    def test_random_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_block(rng, 4) + 3.0 * np.eye(4)
            assert np.abs(solve_blocks(a) @ a - np.eye(4)).max() <= 1e-11

    def test_singular(self):
        with pytest.raises(SingularError, match="A_1 inversion"):
            solve_blocks(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularError, match="during V_n seed inversion"):
            solve_blocks(np.zeros((2, 2)), name="V_n seed", first=None)

    def test_solve_blocks_random_stack(self):
        rng = np.random.default_rng(14)
        a = np.array([random_block(rng, 4) + 3.0 * np.eye(4) for _ in range(5)])
        b = np.array([random_block(rng, 4) for _ in range(5)])
        assert np.abs(a @ solve_blocks(a, b) - b).max() <= 1e-11
        assert np.abs(solve_blocks(a) @ a - np.eye(4)).max() <= 1e-11

    def test_solve_blocks_names_first_singular_block(self):
        a = np.array([np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(SingularError, match="A_3 inversion"):
            solve_blocks(a)
        with pytest.raises(SingularError, match="T_2 inversion"):
            solve_blocks(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2), "T", 2)

    def test_solve_blocks_scale_invariant(self):
        inv = solve_blocks(1e-200 * np.array([np.eye(3), np.eye(3)]))
        assert np.allclose(inv, 1e200 * np.eye(3), rtol=1e-14, atol=0.0)


class TestSolveRow:
    """solve_row factors each A_k once for the whole block row."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 9, 16, 33, 64])
    def test_bitwise_per_block_solve_and_inverse(self, m):
        rng = np.random.default_rng(100 + m)
        a = np.array([random_block(rng, m) for _ in range(4)])
        shared = np.array([random_block(rng, m) for _ in range(3)])
        x = solve_row(a, np.concatenate([shared, np.eye(m)[None]]))
        assert x.shape == (4, 4, m, m)
        for j in range(3):
            assert np.array_equal(x[:, j], np.linalg.solve(a, shared[j]))
        assert np.array_equal(x[:, 3], np.linalg.inv(a))
        per_row = rng.standard_normal((4, 2, m, m)) + 1j * rng.standard_normal((4, 2, m, m))
        y = solve_row(a, per_row)
        for j in range(2):
            assert np.array_equal(y[:, j], np.linalg.solve(a, per_row[:, j]))

    def test_no_blocks(self):
        assert solve_row(np.eye(3)[None], np.zeros((0, 3, 3))).shape == (1, 0, 3, 3)

    def test_exactly_singular_block_raises(self):
        a = np.array([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(np.linalg.LinAlgError):
            solve_row(a, np.eye(2)[None])


class TestNorm:
    def test_identity_two(self):
        assert norm(np.eye(3), NormKind.TWO) == pytest.approx(1.0, abs=1e-13)

    def test_hand_values(self):
        a = np.array([[-3.0, 0.0], [0.0, 2.0]])
        assert norm(a, NormKind.ONE) == 3.0
        assert norm(a, NormKind.INF) == 3.0
        assert norm(a, NormKind.FRO) == pytest.approx(np.sqrt(13.0), rel=1e-14)
        assert norm(a, NormKind.TWO) == pytest.approx(3.0, rel=1e-12)

    def test_two_norm_nonsymmetric(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        # Singular values of this Jordan-like block: golden ratio and its inverse.
        assert norm(a, NormKind.TWO) == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)

    def test_zero(self):
        for kind in ALL_KINDS:
            assert norm(np.zeros((3, 3)), kind) == 0.0

    def test_against_numpy(self):
        rng = np.random.default_rng(9)
        for trial in range(60):
            m = int(rng.integers(1, 7))
            a = random_block(rng, m, complex_entries=bool(trial % 2))
            for kind in ALL_KINDS:
                assert norm(a, kind) == pytest.approx(np_norm(a, kind), rel=1e-10)

    def test_batch_against_numpy_and_per_block(self):
        rng = np.random.default_rng(15)
        for m in (1, 3, 6):
            stack = np.array([[random_block(rng, m) for _ in range(4)] for _ in range(3)])
            for kind in ALL_KINDS:
                got = batch_norm(stack, kind)
                ref = np.linalg.norm(stack, ord=NP_ORD[kind], axis=(-2, -1))
                assert got.shape == (3, 4)
                assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
                per_block = [[norm(b, kind) for b in row] for row in stack]
                assert np.array_equal(got, per_block)

    def test_power_iteration_blind_start(self):
        # The all-ones start vector is orthogonal to the top singular
        # direction here; the certificate check must trigger the fallback.
        a = np.array([[2.5, -0.5], [-0.5, 2.5]])
        assert norm(a, NormKind.TWO) == pytest.approx(3.0, rel=1e-12)

    def test_extreme_scales(self):
        big = np.array([[3e200, 0.0], [0.0, 1e200]])
        assert norm(big, NormKind.TWO) == pytest.approx(3e200, rel=1e-10)
        tiny = np.array([[3e-200, 0.0], [0.0, 1e-200]])
        # Unscaled sums of squares would underflow to zero here.
        assert norm(tiny, NormKind.FRO) == pytest.approx(np.sqrt(10.0) * 1e-200, rel=1e-10)
        assert norm(tiny, NormKind.TWO) == pytest.approx(3e-200, rel=1e-10)
        # Squares of 3e200 overflow as squares of 3e-200 underflow.
        stack = np.array([big, tiny])
        assert batch_norm(stack, NormKind.TWO) == pytest.approx([3e200, 3e-200], rel=1e-10)
        assert batch_norm(stack, NormKind.FRO) == pytest.approx(
            [np.sqrt(10.0) * 1e200, np.sqrt(10.0) * 1e-200], rel=1e-10)

    @given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_submultiplicative(self, m, seed):
        rng = np.random.default_rng(seed)
        a = random_block(rng, m)
        b = random_block(rng, m)
        for kind in ALL_KINDS:
            assert norm(a @ b, kind) <= norm(a, kind) * norm(b, kind) * (1 + 1e-10)

    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_two_fro_sandwich(self, m, seed):
        rng = np.random.default_rng(seed)
        a = random_block(rng, m)
        two = norm(a, NormKind.TWO)
        fro = norm(a, NormKind.FRO)
        assert two <= fro * (1 + 1e-10)
        assert fro <= np.sqrt(m) * two * (1 + 1e-10)


class TestIdentityNorm:
    def test_values(self):
        assert identity_norm(9, NormKind.TWO) == 1.0
        assert identity_norm(9, NormKind.FRO) == 3.0
        assert identity_norm(9, NormKind.ONE) == 1.0
        assert identity_norm(9, NormKind.INF) == 1.0
        for kind in ALL_KINDS:
            assert identity_norm(1, kind) == 1.0


class TestEigenvaluesSmall:
    def test_diagonal(self):
        vals = np.sort(eigenvalues_small(np.diag([1.0, 2.0, 3.0])).real)
        assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-12)

    def test_rotation_complex_pair(self):
        vals = eigenvalues_small(np.array([[0.0, -1.0], [1.0, 0.0]]))
        vals = vals[np.argsort(vals.imag)]
        assert np.allclose(vals, [-1j, 1j], atol=1e-12)

    def test_known_4x4_spectrum(self):
        a = np.array([
            [4.0, -2.0, -1.0, 1.0],
            [-2.0, 4.0, 0.0, -1.0],
            [-1.0, 0.0, 4.0, -2.0],
            [1.0, -1.0, -2.0, 4.0]])
        vals = np.sort(eigenvalues_small(a).real)
        assert np.allclose(vals, [1.4586, 2.3820, 4.6180, 7.5414], atol=5e-4)

    def test_real_symmetric_stays_real(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            b = rng.standard_normal((5, 5))
            a = b + b.T
            vals = eigenvalues_small(a)
            rad = np.abs(vals).max()
            assert np.abs(vals.imag).max() <= 1e-10 * max(rad, 1.0)

    def test_residual_vs_numpy(self):
        rng = np.random.default_rng(13)
        a = random_block(rng, 6)
        mine = np.sort_complex(eigenvalues_small(a))
        ref = np.sort_complex(np.linalg.eigvals(a))
        assert np.abs(mine - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenvalues_small(np.eye(65))

    def test_returns_eig_values_unchanged(self, monkeypatch):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        vals, vecs = np.linalg.eig(a)
        monkeypatch.setattr(np.linalg, "eig", lambda _: (vals, vecs))
        assert eigenvalues_small(a) is vals

    def test_inexact_eigenvector_raises(self, monkeypatch):
        # Only the second eigenvector is off, by 1e-3 in one entry: far
        # above the 1e-8 residual target. The error names that pair.
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        vals, vecs = np.linalg.eig(a)
        bad = vecs.copy()
        bad[0, 1] += 1e-3
        monkeypatch.setattr(np.linalg, "eig", lambda _: (vals, bad))
        with pytest.raises(ConvergenceError, match="eigenpair 1 residual"):
            eigenvalues_small(a)

    def test_wrong_eigenvalue_raises(self, monkeypatch):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        vals, vecs = np.linalg.eig(a)
        monkeypatch.setattr(np.linalg, "eig", lambda _: (vals + 1e-6, vecs))
        with pytest.raises(ConvergenceError, match="eigenpair 0"):
            eigenvalues_small(a)

    def test_nan_residual_raises(self, monkeypatch):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        vals, vecs = np.linalg.eig(a)
        monkeypatch.setattr(np.linalg, "eig", lambda _: (vals, np.full_like(vecs, np.nan)))
        with pytest.raises(ConvergenceError, match="eigenpair 0"):
            eigenvalues_small(a)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eig", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigenvalues_small(np.eye(2))
