import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdom import (Certificate, GeneralBlockMatrix, Inconclusive, NormKind,
                      build_example, certify_nonsingular,
                      check_row_block_dominance, kron_sum,
                      build_tridiag_toeplitz)

from helpers import (ALL_KINDS, np_norm, random_dominant_tridiag,
                     random_general, scalar_tridiag)


class TestGeneralized:
    def test_block_diagonal_is_strict(self):
        g = GeneralBlockMatrix(blocks=np.asarray([
            [2.0 * np.eye(2), np.zeros((2, 2))],
            [np.zeros((2, 2)), 3.0 * np.eye(2)]]))
        rep = check_row_block_dominance(g, NormKind.TWO)
        assert np.array_equal(rep.row_sums, [0.0, 0.0])
        assert rep.dominant and rep.strict

    def test_laplacian_interior_row_sum(self):
        # Interior rows couple through two identity blocks, so the row sum
        # is 2/lambda_min(A_i) with lambda_min = 4 - 2cos(pi/10).
        a = build_example("ex2.1")
        rep = check_row_block_dominance(a, NormKind.TWO)
        expected = 2.0 / (4.0 - 2.0 * np.cos(np.pi / 10.0))
        assert rep.row_sums[4] == pytest.approx(expected, abs=1e-9)
        assert rep.row_sums[0] == pytest.approx(expected / 2.0, abs=1e-9)
        assert rep.strict

    def test_scalar_laplacian_boundary(self):
        rep = check_row_block_dominance(scalar_tridiag(5, -1.0, 2.0, -1.0),
                                        NormKind.TWO)
        assert rep.row_sums[2] == 1.0
        assert rep.dominant and not rep.strict

    def test_singular_diagonal_row(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        diag = a.diag.copy()
        diag[1] = 0.0
        b = type(a)(diag=diag, sup=a.sup, sub=a.sub)
        rep = check_row_block_dominance(b, NormKind.TWO)
        assert rep.singular_rows == (2,)
        assert np.isinf(rep.row_sums[1])
        assert not rep.dominant

    def test_m1_reduces_to_classical(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            a = random_dominant_tridiag(rng, n, 1, NormKind.ONE, target=1.4)
            dense = a.to_dense()
            classical = all(
                sum(abs(dense[i, j]) for j in range(n) if j != i) < abs(dense[i, i])
                for i in range(n))
            for kind in ALL_KINDS:
                rep = check_row_block_dominance(a, kind)
                assert rep.strict == classical

    def test_row_sums_match_numpy_oracle(self):
        rng = np.random.default_rng(41)
        g = random_general(rng, 3, 2, diag_boost=4.0)
        for kind in ALL_KINDS:
            rep = check_row_block_dominance(g, kind)
            for i in range(3):
                di = np.linalg.inv(g.blocks[i, i])
                expected = sum(np_norm(di @ g.blocks[i, j], kind)
                               for j in range(3) if j != i)
                assert rep.row_sums[i] == pytest.approx(expected, rel=1e-10)


class TestFv:
    def test_diagonal_margins(self):
        g = GeneralBlockMatrix(blocks=np.asarray([
            [np.diag([2.0, 5.0]), np.zeros((2, 2))],
            [np.zeros((2, 2)), np.diag([3.0, 4.0])]]))
        rep = check_row_block_dominance(g, NormKind.TWO)
        # With zero off-diagonals the margin is -1/||A_ii^{-1}|| = -min |diag|.
        assert rep.fv_margins[0] == pytest.approx(-2.0, rel=1e-12)
        assert rep.fv_margins[1] == pytest.approx(-3.0, rel=1e-12)
        assert rep.fv_dominant

    def test_known_2x2_block_example(self):
        g = build_example("ex3.1a")
        rep = check_row_block_dominance(g, NormKind.TWO)
        # ||A_12||_2 is the golden ratio, 1/||A_11^{-1}||_2 = lambda_min = 2.
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        assert rep.fv_margins[0] == pytest.approx(phi - 2.0, abs=1e-9)
        assert rep.fv_dominant

    def test_fv_implies_generalized(self):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(1000):
            kind = ALL_KINDS[trial % 4]
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            g = random_general(rng, n, m, complex_entries=bool(trial % 2),
                               diag_boost=float(rng.uniform(0.0, 2.0 * n * m)))
            rep = check_row_block_dominance(g, kind)
            if rep.singular_rows:
                continue
            checked += 1
            for i in range(n):
                if rep.fv_margins[i] <= 0.0:
                    assert rep.row_sums[i] <= 1.0 + 1e-12
        assert checked > 900


class TestScaleInvariance:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_row_sums_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dominant_tridiag(rng, 3, 2, NormKind.INF, target=2.0)
        scales = rng.integers(1, 11, size=3).astype(float)
        from blockdom import left_scale_blockrows
        b = left_scale_blockrows(a, scales)
        ra = check_row_block_dominance(a, NormKind.INF).row_sums
        rb = check_row_block_dominance(b, NormKind.INF).row_sums
        assert np.abs(ra - rb).max() <= 1e-9 * max(1.0, ra.max())


class TestCertificate:
    def test_strict_gives_certificate(self):
        out = certify_nonsingular(build_example("ex2.1"), NormKind.TWO)
        assert isinstance(out, Certificate)
        assert "strict" in out.reason

    def test_boundary_inconclusive(self):
        out = certify_nonsingular(scalar_tridiag(4, -1.0, 2.0, -1.0), NormKind.TWO)
        assert isinstance(out, Inconclusive)

    def test_zero_matrix_inconclusive(self):
        g = GeneralBlockMatrix(blocks=np.zeros((2, 2, 2, 2)))
        out = certify_nonsingular(g, NormKind.ONE)
        assert isinstance(out, Inconclusive)
        assert "singular" in out.reason

    def test_certificate_means_invertible(self):
        rng = np.random.default_rng(43)
        found = 0
        for trial in range(200):
            kind = ALL_KINDS[trial % 4]
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            a = random_dominant_tridiag(rng, n, m, kind)
            out = certify_nonsingular(a, kind)
            if isinstance(out, Certificate):
                found += 1
                np.linalg.inv(a.to_dense())   # must not raise
        assert found >= 150


class TestReport:
    def test_json_keys(self):
        rep = check_row_block_dominance(build_example("ex2.1"), NormKind.TWO)
        doc = rep.to_json_dict()
        assert set(doc) == {"norm", "row_sums", "fv_margins", "singular_rows",
                            "dominant", "strict", "fv_dominant"}
        assert doc["norm"] == "two"
        assert len(doc["row_sums"]) == 9

    def test_norm_kind_changes_sums(self):
        a = kron_sum(build_tridiag_toeplitz(4, -1.0, 2.0, -1.0))
        two = check_row_block_dominance(a, NormKind.TWO).row_sums
        fro = check_row_block_dominance(a, NormKind.FRO).row_sums
        assert not np.allclose(two, fro)
