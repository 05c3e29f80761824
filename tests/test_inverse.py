import numpy as np
import pytest

from blockdom import (BlockTridiagonalMatrix, NormKind,
                      RecurrenceOverflowError, SingularError,
                      assemble_inverse, build_example, build_tridiag_toeplitz,
                      ikebe_factors, invert_block_tridiagonal, kron_sum,
                      residual)
from blockdom.inverse import BlockInverse, diag_residual

from helpers import ALL_KINDS, np_norm, random_dominant_tridiag, scalar_tridiag


class TestSmallExact:
    def test_n1(self):
        a = BlockTridiagonalMatrix(
            diag=np.array([[[2.0, 1.0], [0.0, 4.0]]]),
            sup=np.zeros((0, 2, 2)), sub=np.zeros((0, 2, 2)))
        f = ikebe_factors(a)
        expected = np.linalg.inv(a.diag[0])
        assert np.allclose(f.v[0], expected, atol=1e-14)
        assert np.allclose(f.y[0], expected, atol=1e-14)
        z = assemble_inverse(f)
        assert np.allclose(z.blocks[0, 0], expected, atol=1e-14)

    def test_scalar_n2(self):
        z = invert_block_tridiagonal(scalar_tridiag(2, -1.0, 2.0, -1.0))
        dense = z.to_dense()
        assert np.allclose(dense, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)

    def test_scalar_n3_hand_inverse(self):
        z = invert_block_tridiagonal(scalar_tridiag(3, -1.0, 2.0, -1.0))
        expected = np.array([[3.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 3.0]]) / 4.0
        assert np.abs(z.to_dense() - expected).max() <= 1e-14


class TestAgainstDenseOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(50)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 4))
            a = random_dominant_tridiag(rng, n, m, ALL_KINDS[trial % 4],
                                        complex_entries=bool(trial % 2))
            z = invert_block_tridiagonal(a)
            ref = np.linalg.inv(a.to_dense())
            scale = np.abs(ref).max()
            assert np.abs(z.to_dense() - ref).max() <= 1e-9 * scale

    def test_laplacian_residual(self):
        a = build_example("ex2.1")
        z = invert_block_tridiagonal(a)
        assert residual(a, z, NormKind.TWO) <= 1e-8

    def test_nonsymmetric_residual(self):
        a = build_example("ex2.2")
        z = invert_block_tridiagonal(a)
        assert residual(a, z, NormKind.TWO) <= 1e-8

    def test_symmetric_inverse_symmetric(self):
        z = invert_block_tridiagonal(build_example("ex2.1")).to_dense()
        assert np.abs(z - z.T).max() <= 1e-9


def dense_rel_err(a, z):
    ref = np.linalg.inv(a.to_dense())
    return np.linalg.norm(z.to_dense() - ref) / np.linalg.norm(ref)


class TestReach:
    """Sizes at which the four-sequence inverse is wrong or raises: its
    iterates grow geometrically with n, the chain inverse's do not."""

    @pytest.mark.parametrize("k", [20, 40])
    def test_laplacian(self, k):
        a = kron_sum(build_tridiag_toeplitz(k, -1.0, 2.0, -1.0))
        assert dense_rel_err(a, invert_block_tridiagonal(a)) <= 1e-12

    def test_random_n120(self):
        a = random_dominant_tridiag(np.random.default_rng(0), 120, 4, NormKind.TWO)
        assert dense_rel_err(a, invert_block_tridiagonal(a)) <= 1e-12


class TestDiagResidual:
    def test_matches_dense_diagonal_blocks(self):
        rng = np.random.default_rng(52)
        for kind in ALL_KINDS:
            a = random_dominant_tridiag(rng, 6, 3, kind)
            z = invert_block_tridiagonal(a)
            z = BlockInverse(blocks=z.blocks * (1.0 + 1e-6 * rng.standard_normal(z.blocks.shape)))
            r = z.to_dense() @ a.to_dense() - np.eye(18)
            dense = max(np_norm(r[3 * i:3 * i + 3, 3 * i:3 * i + 3], kind) for i in range(6))
            assert diag_residual(a, z, kind) == pytest.approx(dense, rel=1e-9)

    def test_scale_invariant(self):
        a = build_example("ex2.2")
        z = invert_block_tridiagonal(a)
        scaled = BlockTridiagonalMatrix(diag=4.0 * a.diag, sup=4.0 * a.sup, sub=4.0 * a.sub)
        zs = invert_block_tridiagonal(scaled)
        assert diag_residual(a, z, NormKind.TWO) <= 1e-14
        assert diag_residual(scaled, zs, NormKind.TWO) == diag_residual(a, z, NormKind.TWO)


class TestConsistency:
    def test_diagonal_representations_agree(self):
        rng = np.random.default_rng(51)
        for trial in range(20):
            a = random_dominant_tridiag(rng, 5, 3, NormKind.TWO,
                                        complex_entries=bool(trial % 2))
            z = assemble_inverse(ikebe_factors(a))
            assert z.diag_consistency <= 1e-10

    def test_triangles_meet_on_diagonal(self):
        a = build_example("ex2.1")
        f = ikebe_factors(a)
        for i in range(a.n):
            uv = f.u[i] @ f.v[i]
            yx = f.y[i] @ f.x[i]
            assert np.abs(uv - yx).max() <= 1e-10 * np.abs(uv).max()


class TestMonotoneSequences:
    def test_laplacian_all_kinds(self):
        # Corner conditions ||A_1^{-1} B_1|| < 1 and ||A_n^{-1} C_{n-1}|| < 1
        # hold here, so ||U_i|| must strictly increase and ||Y_i|| strictly
        # decrease along the sequence.
        f = ikebe_factors(build_example("ex2.1"))
        for kind in ALL_KINDS:
            u_norms = [np_norm(f.u[i], kind) for i in range(f.n)]
            y_norms = [np_norm(f.y[i], kind) for i in range(f.n)]
            assert all(b > a for a, b in zip(u_norms, u_norms[1:]))
            assert all(b < a for a, b in zip(y_norms, y_norms[1:]))


class TestErrors:
    def test_singular_super_block_named(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        sup = a.sup.copy()
        sup[0] = 0.0
        bad = BlockTridiagonalMatrix(diag=a.diag, sup=sup, sub=a.sub)
        with pytest.raises(SingularError, match="B_1 inversion"):
            ikebe_factors(bad)

    def test_singular_sub_block_named(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        sub = a.sub.copy()
        sub[1] = 0.0
        bad = BlockTridiagonalMatrix(diag=a.diag, sup=a.sup, sub=sub)
        with pytest.raises(SingularError, match="C_2 inversion"):
            ikebe_factors(bad)

    def test_singular_matrix_seed_named(self):
        # Globally singular with invertible blocks: the V seed must fail.
        a = BlockTridiagonalMatrix(
            diag=np.ones((2, 1, 1)), sup=np.ones((1, 1, 1)), sub=np.ones((1, 1, 1)))
        with pytest.raises(SingularError, match="seed inversion"):
            ikebe_factors(a)

    def test_growth_guard(self):
        # |A_i/B_i| = 1e60 per step blows past the magnitude cap quickly.
        a = BlockTridiagonalMatrix(
            diag=np.full((5, 1, 1), 1e30),
            sup=np.full((4, 1, 1), 1e-30),
            sub=np.full((4, 1, 1), 1e-30))
        with pytest.raises(RecurrenceOverflowError) as exc:
            ikebe_factors(a)
        assert exc.value.step.startswith("U_")

    def test_chain_inverse_caps_entries_at_max_over_m(self):
        # Z = [[1, -c], [0, 1]] / x with x = 2^-1022: at c = 1 the largest
        # entry, 2^1022, is below max / 2 and every block norm is finite; at
        # c = 3 it is past max / 2 and the one-norm of Z overflows.
        x = 2.0 ** -1022
        for c, overflows in ((1.0, False), (3.0, True)):
            a = BlockTridiagonalMatrix(diag=np.array([[[x, c * x], [0.0, x]]]),
                                       sup=np.zeros((0, 2, 2)), sub=np.zeros((0, 2, 2)))
            if not overflows:
                z = invert_block_tridiagonal(a)
                assert all(np.isfinite(z.norm_grid(kind)).all() for kind in ALL_KINDS)
                continue
            with pytest.raises(RecurrenceOverflowError) as exc:
                invert_block_tridiagonal(a)
            assert exc.value.step == "Z"

    def test_n1_singular(self):
        a = BlockTridiagonalMatrix(
            diag=np.zeros((1, 2, 2)), sup=np.zeros((0, 2, 2)), sub=np.zeros((0, 2, 2)))
        with pytest.raises(SingularError, match="A_1 inversion"):
            ikebe_factors(a)


class TestResidual:
    def test_zero_inverse_gives_identity_norm(self):
        a = BlockTridiagonalMatrix(
            diag=np.eye(2)[None, :, :], sup=np.zeros((0, 2, 2)),
            sub=np.zeros((0, 2, 2)))
        z = BlockInverse(blocks=np.zeros((1, 1, 2, 2)), diag_consistency=0.0)
        assert residual(a, z, NormKind.TWO) == pytest.approx(1.0, abs=1e-13)
        assert residual(a, z, NormKind.FRO) == pytest.approx(np.sqrt(2.0), rel=1e-13)

    def test_norm_grid_caching(self):
        a = build_example("ex2.1")
        z = invert_block_tridiagonal(a)
        g1 = z.norm_grid(NormKind.TWO)
        g2 = z.norm_grid(NormKind.TWO)
        assert g1 is g2
        assert g1.shape == (9, 9)
        assert not g1.flags.writeable
