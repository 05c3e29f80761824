import numpy as np
import pytest

from blockdom import (BlockTridiagonalMatrix, GeneralBlockMatrix, NormKind,
                      block_tridiag_from_stencils, build_random_diag,
                      build_tridiag_toeplitz, check_row_block_dominance,
                      kron_sum, left_scale_blockrows)

from helpers import random_dominant_tridiag


class TestToeplitzBuilder:
    def test_3x3(self):
        t = build_tridiag_toeplitz(3, -1.0, 2.0, -1.0)
        assert np.array_equal(t, np.array([
            [2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))

    def test_1x1_ignores_couplings(self):
        assert np.array_equal(build_tridiag_toeplitz(1, 5.0, 7.0, 9.0), np.array([[7.0]]))

    def test_2x2_nonsymmetric(self):
        t = build_tridiag_toeplitz(2, -110.0, 209.999, -99.999)
        assert np.array_equal(t, np.array([[209.999, -99.999], [-110.0, 209.999]]))


class TestKronSum:
    def test_laplacian_blocks(self):
        a = kron_sum(build_tridiag_toeplitz(9, -1.0, 2.0, -1.0))
        assert (a.n, a.m) == (9, 9)
        expected_diag = build_tridiag_toeplitz(9, -1.0, 4.0, -1.0)
        for i in range(9):
            assert np.array_equal(a.diag[i], expected_diag)
        for i in range(8):
            assert np.array_equal(a.sup[i], -np.eye(9))
            assert np.array_equal(a.sub[i], -np.eye(9))

    def test_1x1(self):
        a = kron_sum(np.array([[2.0]]))
        assert (a.n, a.m) == (1, 1)
        assert a.diag[0, 0, 0] == 4.0

    def test_nonsymmetric_blocks(self):
        a = kron_sum(build_tridiag_toeplitz(9, -110.0, 209.999, -99.999))
        assert np.array_equal(a.diag[0], build_tridiag_toeplitz(9, -110.0, 419.998, -99.999))
        assert np.array_equal(a.sup[0], -99.999 * np.eye(9))
        assert np.array_equal(a.sub[0], -110.0 * np.eye(9))

    def test_matches_kron_oracle(self):
        t = build_tridiag_toeplitz(4, -1.0, 3.0, -2.0)
        dense = kron_sum(t).to_dense()
        eye = np.eye(4)
        assert np.array_equal(dense, np.kron(t, eye) + np.kron(eye, t))

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_blocks_bitwise_match_kron_oracle(self, k):
        # array_equal counts -0.0 == 0.0; the bits tell them apart. The
        # dense sum holds -0.0 where -1 * 0 meets +0 (ex2.1's coupling
        # blocks), which c*I blocks built directly would lose.
        for t in (build_tridiag_toeplitz(k, -1.0, 2.0, -1.0),
                  build_tridiag_toeplitz(k, -110.0, 209.999, -99.999)):
            a = kron_sum(t)
            eye = np.eye(k)
            dense = np.kron(t, eye) + np.kron(eye, t)
            for i in range(k):
                block = dense[i * k:(i + 1) * k, i * k:(i + 1) * k]
                assert np.array_equal(a.diag[i].view(np.uint64), block.view(np.uint64))
            for i in range(k - 1):
                sup = dense[i * k:(i + 1) * k, (i + 1) * k:(i + 2) * k]
                sub = dense[(i + 1) * k:(i + 2) * k, i * k:(i + 1) * k]
                assert np.array_equal(a.sup[i].view(np.uint64), sup.view(np.uint64))
                assert np.array_equal(a.sub[i].view(np.uint64), sub.view(np.uint64))

    def test_rejects_non_toeplitz(self):
        t = build_tridiag_toeplitz(3, -1.0, 2.0, -1.0)
        t[0, 0] = 5.0
        with pytest.raises(ValueError):
            kron_sum(t)

    def test_rejects_full_matrix(self):
        with pytest.raises(ValueError):
            kron_sum(np.ones((3, 3)))


class TestDenseRoundTrips:
    def test_single_block(self):
        a = BlockTridiagonalMatrix(
            diag=np.array([[[3.0, 1.0], [0.0, 2.0]]]),
            sup=np.zeros((0, 2, 2)), sub=np.zeros((0, 2, 2)))
        assert np.array_equal(a.to_dense(), np.array([[3.0, 1.0], [0.0, 2.0]]))

    def test_laplacian_dense_symmetric(self):
        dense = kron_sum(build_tridiag_toeplitz(9, -1.0, 2.0, -1.0)).to_dense()
        assert dense.shape == (81, 81)
        assert np.array_equal(dense, dense.T)

    def test_general_round_trip(self):
        rng = np.random.default_rng(21)
        dense = rng.standard_normal((6, 6))
        g = GeneralBlockMatrix(blocks=dense.reshape(3, 2, 3, 2).transpose(0, 2, 1, 3))
        assert np.array_equal(g.to_dense(), dense)
        assert np.array_equal(g.blocks[1, 2], dense[2:4, 4:6])

    def test_tridiag_to_general(self):
        rng = np.random.default_rng(22)
        a = random_dominant_tridiag(rng, 3, 2, NormKind.ONE)
        g = a.to_general()
        assert np.array_equal(g.to_dense(), a.to_dense())
        assert np.all(g.blocks[0, 2] == 0)


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            BlockTridiagonalMatrix(
                diag=np.zeros((3, 2, 2)), sup=np.zeros((1, 2, 2)),
                sub=np.zeros((2, 2, 2)))

    def test_nonfinite_rejected(self):
        diag = np.zeros((1, 2, 2))
        diag[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            BlockTridiagonalMatrix(diag=diag, sup=np.zeros((0, 2, 2)),
                                   sub=np.zeros((0, 2, 2)))

    def test_blocks_read_only(self):
        a = kron_sum(build_tridiag_toeplitz(3, -1.0, 2.0, -1.0))
        with pytest.raises(ValueError):
            a.diag[0, 0, 0] = 99.0


class TestLeftScale:
    def test_all_ones_unchanged(self):
        a = kron_sum(build_tridiag_toeplitz(3, -1.0, 2.0, -1.0))
        b = left_scale_blockrows(a, np.ones(3))
        assert np.array_equal(a.diag, b.diag)
        assert np.array_equal(a.sup, b.sup)
        assert np.array_equal(a.sub, b.sub)

    def test_scales_rows_not_columns(self):
        a = kron_sum(build_tridiag_toeplitz(3, -1.0, 2.0, -1.0))
        b = left_scale_blockrows(a, [2.0, 1.0, 1.0])
        assert np.array_equal(b.diag[0], 2.0 * a.diag[0])
        assert np.array_equal(b.sup[0], 2.0 * a.sup[0])
        assert np.array_equal(b.sub[0], a.sub[0])      # sub[0] lives in block row 2
        assert np.array_equal(b.diag[1], a.diag[1])

    def test_matches_dense_oracle(self):
        a = kron_sum(build_tridiag_toeplitz(4, -1.0, 2.0, -1.0))
        r = [3.0, 1.0, 4.0, 2.0]
        scaled = left_scale_blockrows(a, r)
        oracle = np.kron(np.diag(r), np.eye(4)) @ a.to_dense()
        assert np.array_equal(scaled.to_dense(), oracle)

    def test_zero_scale_rejected(self):
        a = kron_sum(build_tridiag_toeplitz(3, -1.0, 2.0, -1.0))
        with pytest.raises(ValueError, match="nonzero"):
            left_scale_blockrows(a, [1.0, 0.0, 1.0])

    def test_dominance_invariant_under_scaling(self):
        # Row sums ||A_ii^{-1} A_ij|| are unchanged by left block-row scaling.
        rng = np.random.default_rng(23)
        for seed in range(10):
            a = random_dominant_tridiag(rng, 4, 2, NormKind.TWO)
            r = build_random_diag(4, 1, 10, seed)
            before = check_row_block_dominance(a, NormKind.TWO).row_sums
            after = check_row_block_dominance(
                left_scale_blockrows(a, r), NormKind.TWO).row_sums
            assert np.abs(before - after).max() <= 1e-10


class TestRandomDiag:
    def test_deterministic(self):
        assert build_random_diag(9, 1, 10, 42) == build_random_diag(9, 1, 10, 42)
        assert build_random_diag(9, 1, 10, 42) != build_random_diag(9, 1, 10, 43)

    def test_range(self):
        for seed in range(50):
            vals = build_random_diag(20, 1, 10, seed)
            assert all(1 <= v <= 10 for v in vals)

    def test_degenerate_range(self):
        assert build_random_diag(5, 7, 7, 0) == [7, 7, 7, 7, 7]

    def test_matches_documented_recurrence(self):
        # Independent re-implementation of the documented generator.
        seed, lo, hi = 42, 1, 10
        x = seed
        expected = []
        for _ in range(6):
            x = (6364136223846793005 * x + 1442695040888963407) % 2 ** 64
            expected.append(lo + (x >> 33) % (hi - lo + 1))
        assert build_random_diag(6, lo, hi, seed) == expected

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            build_random_diag(3, 5, 4, 0)


class TestStencilBuilder:
    def test_block_values(self):
        a = block_tridiag_from_stencils(
            9, 9, (-0.01, -2.0, 1.0), (-2.0, 10.0, -2.0), (-0.01, -2.0, 1.0))
        assert (a.n, a.m) == (9, 9)
        assert np.array_equal(a.diag[4], build_tridiag_toeplitz(9, -2.0, 10.0, -2.0))
        assert np.array_equal(a.sup[0], build_tridiag_toeplitz(9, -0.01, -2.0, 1.0))
        assert np.array_equal(a.sub[7], build_tridiag_toeplitz(9, -0.01, -2.0, 1.0))

    def test_n1(self):
        a = block_tridiag_from_stencils(1, 3, (0, 0, 0), (-1.0, 2.0, -1.0), (0, 0, 0))
        assert a.n == 1
        assert np.array_equal(a.diag[0], build_tridiag_toeplitz(3, -1.0, 2.0, -1.0))
