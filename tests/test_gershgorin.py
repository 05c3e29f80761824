import json
import os
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from blockdom import (BlockTridiagonalMatrix, GeneralBlockMatrix, NormKind, RegionGrid,
                      auto_box, block_rows, build_example, compare_regions, eval_grid,
                      margins_at, norm)
from blockdom import gershgorin
from blockdom.gershgorin import _row_margins
from blockdom.kernels import batch_norm, singular_mask

from helpers import ALL_KINDS, random_dominant_tridiag, random_general, scalar_tridiag

PHI = (1.0 + np.sqrt(5.0)) / 2.0


class TestMarginsAt:
    def test_symmetric_example_at_shift_four(self):
        # A_11 - 4I is -2 times a permutation, so its inverse is a scaled
        # orthogonal matrix and both margins collapse to phi/2.
        q = margins_at(build_example("ex3.1a"), 4.0, NormKind.TWO)
        assert q[0].row == 1 and q[1].row == 2
        assert q[0].margin_new == pytest.approx(PHI / 2.0, abs=1e-12)
        assert q[0].margin_fv == pytest.approx(PHI / 2.0, abs=1e-12)
        assert not q[0].in_new and not q[0].in_fv

    def test_singular_shift_is_inside(self):
        # 2 and 6 are eigenvalues of both diagonal blocks.
        for shift in (2.0, 6.0):
            for q in margins_at(build_example("ex3.1a"), shift, NormKind.TWO):
                assert np.isinf(q.margin_new) and np.isinf(q.margin_fv)
                assert q.in_new and q.in_fv

    def test_far_point_is_outside(self):
        for q in margins_at(build_example("ex3.1a"), 100.0, NormKind.TWO):
            assert q.margin_new < 0.05
            assert not q.in_fv

    def test_new_margin_never_exceeds_fv(self):
        rng = np.random.default_rng(70)
        a = build_example("ex3.1b")
        for _ in range(25):
            z = complex(rng.uniform(-2, 10), rng.uniform(-4, 4))
            for kind in ALL_KINDS:
                for q in margins_at(a, z, kind):
                    if np.isfinite(q.margin_fv):
                        assert q.margin_new <= q.margin_fv * (1 + 1e-9)

    def test_batched_rows_match_single_point_oracle(self):
        rng = np.random.default_rng(71)
        g = build_example("ex3.1b")
        zs = rng.uniform(-2, 10, 6) + 1j * rng.uniform(-4, 4, 6)
        for kind in ALL_KINDS:
            for diag, offs in zip(*block_rows(g)):
                radius = sum(norm(b, kind) for b in offs)
                mn, mf = _row_margins(diag, offs, zs, kind)
                for k, z in enumerate(zs):
                    shifted = diag - z * np.eye(2)
                    inv = np.linalg.inv(shifted)
                    want_fv = norm(inv, kind) * radius
                    want_new = sum(norm(inv @ b, kind) for b in offs)
                    assert mf[k] == pytest.approx(want_fv, rel=1e-12)
                    assert mn[k] == pytest.approx(want_new, rel=1e-12)

    def test_tridiagonal_input_accepted(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        q = margins_at(a, 0.5, NormKind.TWO)
        assert len(q) == 3
        assert q[0].margin_new == pytest.approx(1.0 / 1.5, abs=1e-15)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            margins_at(np.eye(4), 0.0, NormKind.TWO)


class TestScalarReduction:
    def test_margins_identical_for_1x1_blocks(self):
        a = scalar_tridiag(5, -1.0, 2.0, -1.0)
        rng = np.random.default_rng(72)
        for _ in range(20):
            z = complex(rng.uniform(-1, 5), rng.uniform(-2, 2))
            for q in margins_at(a, z, NormKind.TWO):
                assert q.margin_new == q.margin_fv

    def test_membership_matches_classical_disks(self):
        a = scalar_tridiag(5, -1.0, 2.0, -1.0)
        grid = eval_grid(a, (-1.03, 5.07, -2.11, 2.13), 40, 40, NormKind.ONE)
        dense = a.to_dense()
        zs = grid.re_values()[None, :] + 1j * grid.im_values()[:, None]
        for i in range(5):
            r = np.abs(dense[i]).sum() - np.abs(dense[i, i])
            inside = np.abs(zs - dense[i, i]) <= r
            assert np.array_equal(grid.member_new()[i], inside)
            assert np.array_equal(grid.member_fv()[i], inside)

    def test_diagonal_hit_is_member(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        q = margins_at(a, 2.0, NormKind.TWO)
        assert all(np.isinf(x.margin_new) for x in q)


class TestEigenvalueCoverage:
    def test_exact_spectra_covered(self):
        for exp_id in ("ex3.1a", "ex3.1b"):
            a = build_example(exp_id)
            for lam in np.linalg.eigvals(a.to_dense()):
                best = max(q.margin_new for q in margins_at(a, lam, NormKind.TWO))
                assert best >= 1.0 - 1e-9

    def test_reference_eigenvalues(self):
        from blockdom.experiments import REFERENCE_EIGENVALUES
        for exp_id, refs in REFERENCE_EIGENVALUES.items():
            a = build_example(exp_id)
            eigs = np.sort(np.linalg.eigvals(a.to_dense()).real)
            assert np.abs(eigs - np.asarray(refs)).max() <= 5e-4
            for lam in refs:
                best = max(q.margin_new for q in margins_at(a, lam, NormKind.TWO))
                assert best >= 1.0 - 1e-3

    def test_region_chain_cover_is_margin_at_eigenvalue(self, tmp_path):
        from blockdom.experiments import REFERENCE_EIGENVALUES, run_region_chain
        for exp_id, kind in (("ex3.1a", NormKind.TWO), ("ex3.1b", NormKind.INF)):
            g = build_example(exp_id)
            out = tmp_path / exp_id
            chain = run_region_chain(g, kind, out, None, 7, 7, REFERENCE_EIGENVALUES[exp_id])
            written = json.loads((out / "region_summary.json").read_text())["eigen_cover"]
            assert len(chain.eigen_cover) == len(written) == 4
            for cover, doc in zip(chain.eigen_cover, written):
                best = max(q.margin_new for q in margins_at(g, cover["eigenvalue"], kind))
                assert cover["margin_new"] == doc["margin_new"] == best

    def test_random_general_spectra_covered(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            g = random_general(rng, n, m, diag_boost=2.0)
            dense = g.to_dense()
            for lam in np.linalg.eigvals(dense):
                best = max(q.margin_new for q in margins_at(g, lam, NormKind.TWO))
                assert best >= 1.0 - 1e-9


class TestAutoBox:
    def test_symmetric_example(self):
        lo, hi, blo, bhi = auto_box(build_example("ex3.1a"), NormKind.TWO)
        width = (6.0 + PHI) - (2.0 - PHI)
        assert lo == pytest.approx(2.0 - PHI - 0.1 * width, abs=1e-9)
        assert hi == pytest.approx(6.0 + PHI + 0.1 * width, abs=1e-9)
        assert blo == pytest.approx(-1.2 * PHI, abs=1e-9)
        assert bhi == pytest.approx(1.2 * PHI, abs=1e-9)

    def test_covers_spectrum(self):
        for exp_id in ("ex3.1a", "ex3.1b"):
            a = build_example(exp_id)
            lo, hi, blo, bhi = auto_box(a, NormKind.TWO)
            eigs = np.linalg.eigvals(a.to_dense())
            assert np.all(eigs.real > lo) and np.all(eigs.real < hi)
            assert np.all(eigs.imag > blo) and np.all(eigs.imag < bhi)

    def test_degenerate_pad_fallback(self):
        g = GeneralBlockMatrix(blocks=np.full((1, 1, 1, 1), 5.0 + 0.0j))
        assert auto_box(g, NormKind.TWO) == (4.0, 6.0, -1.0, 1.0)


class TestEvalGrid:
    def test_margins_match_pointwise(self):
        a = build_example("ex3.1a")
        grid = eval_grid(a, (-1.0, 9.0, -4.0, 4.0), 9, 7, NormKind.TWO)
        res, ims = grid.re_values(), grid.im_values()
        assert res[0] == -1.0 and res[-1] == 9.0 and len(res) == 9
        for iy, ix in ((0, 0), (3, 4), (6, 8)):
            qs = margins_at(a, complex(res[ix], ims[iy]), NormKind.TWO)
            for i, q in enumerate(qs):
                assert grid.margins_new[i, iy, ix] == pytest.approx(
                    q.margin_new, rel=1e-12)
                assert grid.margins_fv[i, iy, ix] == pytest.approx(
                    q.margin_fv, rel=1e-12)

    def test_auto_box_default(self):
        a = build_example("ex3.1a")
        grid = eval_grid(a, None, 12, 10, NormKind.TWO)
        lo, hi, blo, bhi = auto_box(a, NormKind.TWO)
        assert (grid.re_min, grid.re_max) == (lo, hi)
        assert (grid.im_min, grid.im_max) == (blo, bhi)

    def test_chunk_size_is_bitwise_irrelevant(self, monkeypatch):
        # 23 * 17 = 391 nodes: four slices of 97 and a partial one of 3.
        a = build_example("ex3.1b")
        box = (-1.0, 9.0, -4.0, 4.0)
        for kind in ALL_KINDS:
            whole = eval_grid(a, box, 23, 17, kind)
            monkeypatch.setattr(gershgorin, "GRID_CHUNK", 97)
            sliced = eval_grid(a, box, 23, 17, kind)
            monkeypatch.undo()
            assert np.array_equal(whole.margins_new, sliced.margins_new)
            assert np.array_equal(whole.margins_fv, sliced.margins_fv)

    def test_row_margins_sees_at_most_one_chunk(self, monkeypatch):
        sizes = []

        def spy(diag, offs, zs, kind):
            sizes.append(zs.shape[0])
            return _row_margins(diag, offs, zs, kind)

        monkeypatch.setattr(gershgorin, "_row_margins", spy)
        a = build_example("ex3.1a")
        eval_grid(a, (-1.0, 9.0, -4.0, 4.0), 300, 300, NormKind.ONE)
        # Two off-diagonal slots per row, plus S^{-1}: three blocks a node.
        assert max(sizes) == gershgorin.GRID_CHUNK // 3
        assert sum(sizes) == 300 * 300 * len(block_rows(a)[0])

    def test_degenerate_box_rejected(self):
        a = build_example("ex3.1a")
        with pytest.raises(ValueError, match="degenerate"):
            eval_grid(a, (1.0, 1.0, -1.0, 1.0), 5, 5, NormKind.TWO)
        with pytest.raises(ValueError, match="nx"):
            eval_grid(a, (0.0, 1.0, -1.0, 1.0), 1, 5, NormKind.TWO)

    def test_non_finite_box_rejected(self):
        a = build_example("ex3.1a")
        for box in ((-np.inf, np.inf, -1.0, 1.0), (0.0, 1.0, np.nan, 1.0)):
            with pytest.raises(ValueError, match="non-finite"):
                eval_grid(a, box, 5, 5, NormKind.TWO)

    def test_csv_layout(self, tmp_path):
        a = scalar_tridiag(2, -1.0, 2.0, -1.0)
        grid = eval_grid(a, (0.0, 1.0, -1.0, 1.0), 3, 2, NormKind.TWO)
        p = tmp_path / "grid.csv"
        grid.write_csv(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "re,im,row,margin_new,margin_fv"
        assert len(lines) == 1 + 3 * 2 * 2
        first = lines[1].split(",")
        assert first[:3] == ["0", "-1", "1"]
        # node-outer, row-inner ordering
        assert lines[2].split(",")[2] == "2"
        assert lines[3].split(",")[:3] == ["0.5", "-1", "1"]


    def test_pool_sized_by_tasks(self, monkeypatch):
        # ex2.1 at 24x24 is 9 rows of one slice; ex3.1a at 200x200 is 2 rows
        # of 30 slices of GRID_CHUNK // 3 nodes. The stand-in pool runs each
        # task inline.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                f = Future()
                f.set_result(fn(*args))
                return f

        monkeypatch.setattr(gershgorin, "ThreadPoolExecutor", InlinePool)
        for cpus in (1, 4, 32):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            sizes.clear()
            eval_grid(build_example("ex2.1"), None, 24, 24, NormKind.ONE)
            eval_grid(build_example("ex3.1a"), None, 200, 200, NormKind.ONE)
            assert sizes == [min(cpus, 9), min(cpus, 60)]

    def test_slice_memory_counts_blocks(self, monkeypatch):
        # A dense 24-row matrix solves 25 blocks a node. Sized by nodes, a
        # slice of GRID_CHUNK nodes would hold 25 times the per-slice bound
        # of GRID_CHUNK * m * m * 16 bytes (the peak read 26 bounds); sized
        # by blocks it holds one (the peak, with the matrix copies, read
        # under 2).
        monkeypatch.setattr(gershgorin, "GRID_CHUNK", 1024)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        a = random_general(np.random.default_rng(76), 24, 6)
        tracemalloc.start()
        try:
            grid = eval_grid(a, (-1.0, 1.0, -1.0, 1.0), 32, 32, NormKind.ONE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = grid.margins_new.nbytes + grid.margins_fv.nbytes
        assert peak - out <= 8 * 1024 * 6 * 6 * 16

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonsingular_slice_factors_once(self, monkeypatch, kind):
        # ex2.1's row 2 has two off-diagonal blocks; every node of this box
        # is nonsingular, so the slice is one stacked solve and no inverse.
        calls = []

        def spy(name):
            fn = getattr(np.linalg, name)
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("solve", "inv"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        diag, offs = block_rows(build_example("ex2.1"))
        zs = np.linspace(-1.0, 1.0, 50) + 20.0j
        mn, mf = _row_margins(diag[1], offs[1], zs, kind)
        assert np.all(np.isfinite(mn)) and np.all(np.isfinite(mf))
        assert calls == ["solve"]


def loop_row_margins(diag, offs, zs, kind):
    """The SVD-first _row_margins that the screened one replaced: one SVD
    test on every node, then inv/solve on the nonsingular ones."""
    offs = [b for b in offs if b.any()]
    radius = sum(norm(b, kind) for b in offs)
    m = diag.shape[0]
    if m == 1:
        dist = np.abs(diag[0, 0] - zs)
        with np.errstate(divide="ignore"):
            margin = np.where(dist == 0.0, np.inf, radius / np.where(dist == 0.0, 1.0, dist))
        return margin, margin.copy()

    npts = zs.shape[0]
    shifted = np.broadcast_to(diag, (npts, m, m)).copy()
    idx = np.arange(m)
    shifted[:, idx, idx] -= zs[:, None]
    svals = np.linalg.svd(shifted, compute_uv=False)
    singular = singular_mask(svals)

    margins_new = np.full(npts, np.inf)
    margins_fv = np.full(npts, np.inf)
    ok = ~singular
    if ok.any():
        sub = shifted[ok]
        if kind is NormKind.TWO:
            inv_norms = 1.0 / svals[ok, -1]
        else:
            try:
                inv_norms = batch_norm(np.linalg.inv(sub), kind)
            except np.linalg.LinAlgError:
                inv_norms = np.empty(sub.shape[0])
                for k in range(sub.shape[0]):
                    try:
                        inv_norms[k] = batch_norm(np.linalg.inv(sub[k])[None], kind)[0]
                    except np.linalg.LinAlgError:
                        inv_norms[k] = np.inf
        margins_fv[ok] = inv_norms * radius
        total = np.zeros(sub.shape[0])
        for b in offs:
            total += batch_norm(np.linalg.solve(sub, b), kind)
        margins_new[ok] = total
    return margins_new, margins_fv


class TestRowMarginsLoopReference:
    """eval_grid's margins are bitwise those of the SVD-first loop."""

    def assert_bitwise(self, monkeypatch, a, box, nx, ny):
        for kind in ALL_KINDS:
            got = eval_grid(a, box, nx, ny, kind)
            with monkeypatch.context() as mp:
                mp.setattr(gershgorin, "_row_margins", loop_row_margins)
                want = eval_grid(a, box, nx, ny, kind)
            assert np.array_equal(got.margins_new, want.margins_new), kind
            assert np.array_equal(got.margins_fv, want.margins_fv), kind

    @pytest.mark.parametrize("exp_id", ["ex3.1a", "ex3.1b"])
    def test_examples_with_singular_nodes(self, monkeypatch, exp_id):
        self.assert_bitwise(monkeypatch, build_example(exp_id), (-1.0, 9.0, -4.0, 4.0), 11, 9)

    @pytest.mark.parametrize("half", [1e-13, 1e-12])
    def test_box_around_an_eigenvalue(self, monkeypatch, half):
        # 2 is an eigenvalue of both diagonal blocks of ex3.1a; the SVD test
        # flags nodes within about 4e-13 of it.
        self.assert_bitwise(monkeypatch, build_example("ex3.1a"),
                            (2.0 - half, 2.0 + half, -half, half), 7, 6)

    def test_banded_example(self, monkeypatch):
        self.assert_bitwise(monkeypatch, build_example("ex2.1"), None, 24, 24)

    def test_random_tridiagonal(self, monkeypatch):
        a = random_dominant_tridiag(np.random.default_rng(74), 10, 6, NormKind.ONE)
        self.assert_bitwise(monkeypatch, a, None, 16, 12)

    def test_tiny_scale(self, monkeypatch):
        a = GeneralBlockMatrix(blocks=1e-200 * build_example("ex3.1a").blocks)
        self.assert_bitwise(monkeypatch, a, (-1e-200, 9e-200, -4e-200, 4e-200), 11, 9)

    @pytest.mark.parametrize("decoupled", ["single_block", "block_diagonal", "zero_row"])
    def test_rows_without_off_diagonal_blocks(self, monkeypatch, decoupled):
        # Rows whose off-diagonal blocks are all zero have margins 0, or +inf
        # at a singular node, in every norm; the two-norm solves no block.
        rng = np.random.default_rng(78)
        if decoupled == "single_block":
            a = BlockTridiagonalMatrix(diag=np.array([[[1.0, 2.0], [0.0, 3.0]]], dtype=complex),
                                       sup=np.zeros((0, 2, 2), complex),
                                       sub=np.zeros((0, 2, 2), complex))
        else:
            blocks = random_general(rng, 3, 2).blocks.copy()
            blocks[2, :2] = blocks[:2, 2] = 0.0
            if decoupled == "block_diagonal":
                blocks[0, 1] = blocks[1, 0] = 0.0
            a = GeneralBlockMatrix(blocks=blocks)
        eig = complex(np.linalg.eigvals(block_rows(a)[0][-1])[0])
        self.assert_bitwise(monkeypatch, a, (eig.real - 1.0, eig.real + 1.0, -1.0, 1.0), 9, 7)
        for z in (eig, eig + 0.25):
            for kind in ALL_KINDS:
                got = margins_at(a, z, kind)
                for (diag, offs), q in zip(zip(*block_rows(a)), got):
                    mn, mf = loop_row_margins(diag, offs, np.asarray([z]), kind)
                    assert q.margin_new == mn[0] and q.margin_fv == mf[0], (kind, z)
                assert got[-1].margin_new in (0.0, np.inf)


def loop_grid_csv(grid):
    """The per-cell loop RegionGrid.write_csv replaced, as text."""
    def fmt(v: float) -> str:
        return "inf" if np.isinf(v) else "%.17g" % v

    res = grid.re_values()
    ims = grid.im_values()
    lines = ["re,im,row,margin_new,margin_fv"]
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            for i in range(grid.rows):
                lines.append("%s,%s,%d,%s,%s" % (
                    fmt(res[ix]), fmt(ims[iy]), i + 1,
                    fmt(grid.margins_new[i, iy, ix]),
                    fmt(grid.margins_fv[i, iy, ix])))
    return "\n".join(lines) + "\n"


class TestCsvLoopReference:
    """grid.csv is byte for byte what the per-cell loop wrote."""

    def assert_same_bytes(self, grid, tmp_path):
        p = tmp_path / "grid.csv"
        grid.write_csv(p)
        assert p.read_bytes() == loop_grid_csv(grid).encode()

    def test_singular_nodes_in_every_norm(self, tmp_path):
        # The integer nodes 2 and 6 are eigenvalues of ex3.1a's diagonal
        # blocks, so their margins are inf.
        for kind in ALL_KINDS:
            grid = eval_grid(build_example("ex3.1a"), (-1.0, 9.0, -4.0, 4.0), 11, 9, kind)
            assert np.isinf(grid.margins_new).any()
            self.assert_same_bytes(grid, tmp_path)

    def test_scalar_blocks(self, tmp_path):
        grid = eval_grid(scalar_tridiag(4, -1.0, 2.0, -0.5), (0.0, 4.0, -1.0, 1.0),
                         9, 5, NormKind.ONE)
        assert np.isinf(grid.margins_fv).any()
        self.assert_same_bytes(grid, tmp_path)

    def test_threaded_and_random(self, tmp_path):
        # 70 * 61 nodes span two slices: on two or more CPUs, two threads
        # share each row.
        assert 70 * 61 > gershgorin.GRID_CHUNK
        rng = np.random.default_rng(72)
        for kind in ALL_KINDS:
            a = random_general(rng, 3, 2)
            self.assert_same_bytes(eval_grid(a, None, 70, 61, kind), tmp_path)

    def test_negative_infinity_prints_inf(self, tmp_path):
        margins = np.array([[[0.5, -np.inf], [np.nan, np.inf]]])
        grid = RegionGrid(re_min=-0.1, re_max=1e-300, im_min=-3.0, im_max=2.5,
                          nx=2, ny=2, norm_kind=NormKind.TWO,
                          margins_new=margins, margins_fv=-margins)
        self.assert_same_bytes(grid, tmp_path)
        assert (tmp_path / "grid.csv").read_text().splitlines()[1:] == [
            "-0.10000000000000001,-3,1,0.5,-0.5",
            "1e-300,-3,1,inf,inf",
            "-0.10000000000000001,2.5,1,nan,nan",
            "1e-300,2.5,1,inf,inf"]


class TestCompareRegions:
    def test_scalar_families_coincide(self):
        a = scalar_tridiag(4, -1.0, 2.0, -1.0)
        summary = compare_regions(eval_grid(a, (-1.0, 5.0, -2.0, 2.0), 31, 21,
                                            NormKind.TWO))
        assert summary.counts_new == summary.counts_fv
        assert summary.union_count_new == summary.union_count_fv
        assert summary.containment_violations == 0
        assert all(r == 1.0 for r in summary.to_json_dict()["count_ratio"])

    def test_block_examples_shrink(self):
        for exp_id in ("ex3.1a", "ex3.1b"):
            grid = eval_grid(build_example(exp_id), None, 60, 60, NormKind.TWO)
            summary = compare_regions(grid)
            assert summary.containment_violations == 0
            assert 0 < summary.union_count_new < summary.union_count_fv

    def test_node_area_and_json(self):
        a = scalar_tridiag(2, -1.0, 2.0, -1.0)
        grid = eval_grid(a, (0.0, 1.0, 0.0, 2.0), 11, 5, NormKind.TWO)
        summary = compare_regions(grid)
        assert summary.node_area == pytest.approx(0.1 * 0.5, abs=1e-15)
        doc = summary.to_json_dict()
        assert doc["union_area_new"] == pytest.approx(
            summary.union_count_new * summary.node_area)
        assert set(doc) == {"counts_new", "counts_fv", "count_ratio",
                            "union_count_new", "union_count_fv",
                            "union_area_new", "union_area_fv",
                            "containment_violations", "node_area"}

    def test_empty_region_ratio_is_nan(self):
        a = scalar_tridiag(2, -1.0, 2.0, -1.0)
        grid = eval_grid(a, (50.0, 51.0, 50.0, 51.0), 4, 4, NormKind.TWO)
        summary = compare_regions(grid)
        assert summary.union_count_fv == 0
        assert all(np.isnan(r) for r in summary.to_json_dict()["count_ratio"])
