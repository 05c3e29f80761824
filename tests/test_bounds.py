import dataclasses
import json

import numpy as np
import pytest

from blockdom import (BlockTridiagonalMatrix, BoundsReport, DominanceViolation, NormKind,
                      SingularError, batch_norm, build_example, compute_bounds, compute_chains,
                      compute_tau_omega, identity_norm, ikebe_factors,
                      invert_block_tridiagonal, solve_blocks)
from blockdom.dominance import diag_solves
from blockdom.experiments import check_bound_validity, run_bounds_chain

from helpers import ALL_KINDS, np_norm, random_dominant_tridiag, scalar_tridiag


def laplacian_table(kind=NormKind.TWO, t_max=8):
    return compute_tau_omega(build_example("ex2.1"), kind, t_max)


class TestTauOmegaScalar:
    def test_n3_base_step(self):
        table = compute_tau_omega(scalar_tridiag(3, -1.0, 2.0, -1.0), NormKind.TWO, 2)
        assert [table.tau_at(i, 1) for i in (1, 2, 3)] == [0.5, 1.0, 0.0]
        assert [table.omega_at(i, 1) for i in (1, 2, 3)] == [0.0, 1.0, 0.5]

    def test_n3_refined_step(self):
        table = compute_tau_omega(scalar_tridiag(3, -1.0, 2.0, -1.0), NormKind.TWO, 2)
        assert table.tau_at(1, 2) == 0.5                      # frozen once t > i
        assert table.tau_at(2, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert table.tau_at(3, 2) == 0.0
        assert table.omega_at(2, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert table.omega_at(3, 2) == 0.5

    def test_boundary_conventions(self):
        table = compute_tau_omega(scalar_tridiag(3, -1.0, 2.0, -1.0), NormKind.TWO, 2)
        assert table.tau_at(0, 1) == 0.0
        assert table.omega_at(4, 1) == 0.0
        with pytest.raises(IndexError):
            table.tau_at(5, 1)
        with pytest.raises(IndexError):
            table.tau_at(1, 3)

    def test_rho(self):
        table = compute_tau_omega(scalar_tridiag(3, -1.0, 2.0, -1.0), NormKind.TWO, 2)
        assert table.rho(1) == (1.0, 1.0)
        assert table.rho(2) == (pytest.approx(2.0 / 3.0), pytest.approx(2.0 / 3.0))


class TestTauOmegaLaplacian:
    def test_corner_value(self):
        table = laplacian_table()
        expected = 1.0 / (4.0 - 2.0 * np.cos(np.pi / 10.0))
        assert table.tau_at(1, 1) == pytest.approx(expected, abs=1e-9)
        assert table.omega_at(9, 1) == pytest.approx(expected, abs=1e-9)

    def test_interior_constant_at_t1(self):
        table = laplacian_table()
        interior = [table.tau_at(i, 1) for i in range(2, 9)]
        assert max(interior) - min(interior) <= 1e-12

    def test_nonincreasing_in_t(self):
        table = laplacian_table()
        for i in range(1, 10):
            for t in range(1, 8):
                assert table.tau_at(i, t + 1) <= table.tau_at(i, t) + 1e-14
                assert table.omega_at(i, t + 1) <= table.omega_at(i, t) + 1e-14

    def test_random_nonincreasing_property(self):
        rng = np.random.default_rng(60)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 4))
            kind = ALL_KINDS[trial % 4]
            a = random_dominant_tridiag(rng, n, m, kind)
            table = compute_tau_omega(a, kind, n - 1)
            diffs_tau = np.diff(table.tau, axis=1)
            diffs_omega = np.diff(table.omega, axis=1)
            assert diffs_tau.max(initial=-np.inf) <= 1e-12
            assert diffs_omega.max(initial=-np.inf) <= 1e-12

    def test_scale_invariance(self):
        from blockdom import build_random_diag, left_scale_blockrows
        a = build_example("ex2.1")
        base = compute_tau_omega(a, NormKind.TWO, 8)
        scaled = compute_tau_omega(
            left_scale_blockrows(a, build_random_diag(9, 1, 10, 123)),
            NormKind.TWO, 8)
        assert np.abs(base.tau - scaled.tau).max() <= 1e-12
        assert np.abs(base.omega - scaled.omega).max() <= 1e-12

    @pytest.mark.parametrize("kind", [NormKind.ONE, NormKind.INF, NormKind.TWO])
    def test_power_of_two_scales_keep_bits(self, kind):
        # 2^530 and 2^-530 scale every block exactly, so A_i^{-1} B_i and
        # A_i^{-1} C_{i-1} do not change by a bit, and neither may tau/omega.
        # (ex2.1 is not dominant in the Frobenius norm.)
        a = build_example("ex2.1")
        tables = [compute_tau_omega(BlockTridiagonalMatrix(
            diag=s * a.diag, sup=s * a.sup, sub=s * a.sub), kind)
            for s in (1.0, 2.0 ** 530, 2.0 ** -530)]
        for t in tables[1:]:
            assert np.array_equal(t.tau, tables[0].tau)
            assert np.array_equal(t.omega, tables[0].omega)


class TestTauOmegaErrors:
    def test_violation_row_and_step(self):
        with pytest.raises(DominanceViolation) as exc:
            compute_tau_omega(scalar_tridiag(3, 3.0, 1.0, 3.0), NormKind.TWO, 1)
        assert exc.value.row == 2
        assert exc.value.step == 1

    def test_zero_numerator_skips_denominator(self):
        # All tau numerators vanish (zero superdiagonal), so the
        # nonpositive tau denominators in rows 2..3 are never consulted.
        table = compute_tau_omega(scalar_tridiag(3, 3.0, 1.0, 0.0), NormKind.TWO, 1)
        assert np.all(table.tau == 0.0)
        assert table.omega_at(2, 1) == 3.0

    def test_bad_t_max(self):
        with pytest.raises(ValueError):
            compute_tau_omega(scalar_tridiag(2, -1.0, 2.0, -1.0), NormKind.TWO, 0)


def loop_tau_omega(a, kind, t_max=None):
    """The per-cell loop compute_tau_omega replaced: (tau, omega), raising
    the first DominanceViolation in its order of rows and steps."""
    def ratio(num, den, row, step, which):
        if num == 0.0:
            return 0.0
        if den <= 0.0:
            raise DominanceViolation(row, step, den, which)
        return num / den

    n = a.n
    t_max = max(1, n - 1) if t_max is None else t_max
    norms = batch_norm(diag_solves(a), kind)
    nac, nab = norms[:, 0], norms[:, 1]
    tau = np.zeros((n, t_max))
    omega = np.zeros((n, t_max))
    for i in range(1, n + 1):
        tau[i - 1, 0] = ratio(nab[i - 1], 1.0 - nac[i - 1], i, 1, "tau")
        omega[i - 1, 0] = ratio(nac[i - 1], 1.0 - nab[i - 1], i, 1, "omega")
    for t in range(2, t_max + 1):
        for i in range(1, n + 1):
            if t > i:
                tau[i - 1, t - 1] = tau[i - 1, t - 2]
            else:
                prev = tau[i - 2, t - 2] if i >= 2 else 0.0
                tau[i - 1, t - 1] = ratio(nab[i - 1], 1.0 - nac[i - 1] * prev, i, t, "tau")
            if i > n - t + 1:
                omega[i - 1, t - 1] = omega[i - 1, t - 2]
            else:
                nxt = omega[i, t - 2] if i <= n - 1 else 0.0
                omega[i - 1, t - 1] = ratio(nac[i - 1], 1.0 - nab[i - 1] * nxt, i, t, "omega")
    return tau, omega


def scalar_rows(diag, sub, sup):
    """m = 1 tridiagonal matrix with the given per-row entries."""
    def blocks(x):
        return np.asarray(x, dtype=np.complex128).reshape(-1, 1, 1)
    return BlockTridiagonalMatrix(diag=blocks(diag), sup=blocks(sup), sub=blocks(sub))


class TestTauOmegaLoopReference:
    """compute_tau_omega fills one column per step; the tables are bitwise
    the per-cell loop's and the first violation is the one it raises."""

    def test_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(37)
        cases = [(build_example("ex2.1"), NormKind.TWO, 8),
                 (build_example("ex2.1"), NormKind.ONE, 12),
                 (scalar_tridiag(1, 0.0, 2.0, 0.0), NormKind.TWO, 3),
                 (scalar_tridiag(3, 3.0, 1.0, 0.0), NormKind.TWO, 2),
                 (scalar_tridiag(4, 0.0, 1.0, 3.0), NormKind.INF, 3)]
        for k in range(24):
            kind = ALL_KINDS[k % 4]
            n = int(rng.integers(1, 13))
            a = random_dominant_tridiag(rng, n, 1 + k % 3, kind, target=(0.5, 0.9, 0.99)[k % 3])
            cases.append((a, kind, None if k % 5 else n + 2))
        for a, kind, t_max in cases:
            table = compute_tau_omega(a, kind, t_max)
            tau, omega = loop_tau_omega(a, kind, t_max)
            assert table.tau.tobytes() == tau.tobytes()
            assert table.omega.tobytes() == omega.tobytes()

    def test_same_first_violation(self):
        rng = np.random.default_rng(41)
        seen = set()
        for trial in range(400):
            n = int(rng.integers(2, 9))
            couplings = rng.uniform(0.0, 1.3, (2, n - 1)) * (rng.random((2, n - 1)) < 0.85)
            a = scalar_rows(np.ones(n), couplings[0], couplings[1])
            try:
                expected = loop_tau_omega(a, NormKind.TWO)
            except DominanceViolation as exc:
                with pytest.raises(DominanceViolation) as got:
                    compute_tau_omega(a, NormKind.TWO)
                assert (got.value.row, got.value.step, str(got.value)) == (
                    exc.row, exc.step, str(exc))
                seen.add((str(exc).split()[0], exc.step > 1))
            else:
                table = compute_tau_omega(a, NormKind.TWO)
                assert (table.tau.tobytes(), table.omega.tobytes()) == tuple(
                    x.tobytes() for x in expected)
        assert seen == {("tau", False), ("tau", True), ("omega", False), ("omega", True)}

    def test_tau_before_omega_in_one_row(self):
        # Row 2 fails both its tau and its omega denominator at step 1.
        a = scalar_rows([1.0, 1.0, 1.0], [2.0, 0.5], [0.5, 2.0])
        with pytest.raises(DominanceViolation, match="^tau denominator") as exc:
            compute_tau_omega(a, NormKind.TWO)
        assert (exc.value.row, exc.value.step) == (2, 1)


class TestChains:
    def test_n2_scalar(self):
        ch = compute_chains(scalar_tridiag(2, -1.0, 2.0, -1.0))
        assert ch.l_blocks[0][0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert ch.m_blocks[0][0, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_norms_bounded_by_tau_omega(self):
        a = build_example("ex2.1")
        ch = compute_chains(a)
        for kind in ALL_KINDS:
            table = compute_tau_omega(a, kind, 1)
            for i in range(1, a.n):
                assert np_norm(ch.l_blocks[i - 1], kind) <= table.tau_at(i, 1) + 1e-12
            for i in range(2, a.n + 1):
                assert np_norm(ch.m_blocks[i - 2], kind) <= table.omega_at(i, 1) + 1e-12

    def test_alternative_recurrence_reproduces_factors(self):
        a = build_example("ex2.1")
        f = ikebe_factors(a)
        ch = compute_chains(a)
        for i in range(1, a.n):
            lhs = f.u[i - 1]
            rhs = -ch.l_blocks[i - 1] @ f.u[i]
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)
        for i in range(2, a.n + 1):
            lhs = f.y[i - 1]
            rhs = -ch.m_blocks[i - 2] @ f.y[i - 2]
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(lhs).max(), 1.0)

    def test_singular_chain_block_named(self):
        # T_2 = 1 - (1/1)(1/1) = 0 when every block is 1.
        with pytest.raises(SingularError, match="T_2 inversion"):
            compute_chains(scalar_tridiag(3, 1.0, 1.0, 1.0))

    def test_n1_empty(self):
        ch = compute_chains(scalar_tridiag(1, 0.0, 2.0, 0.0))
        assert ch.l_blocks.shape == (0, 1, 1)
        assert ch.m_blocks.shape == (0, 1, 1)


class TestComputeBoundsScalar:
    def setup_method(self):
        self.a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        self.z = invert_block_tridiagonal(self.a)
        self.table = compute_tau_omega(self.a, NormKind.TWO, 2)

    def test_corner_bound_t1(self):
        rep = compute_bounds(self.a, self.z, self.table, 1)
        # u_13 = ||Z_33|| tau_1 tau_2 = 0.75 * 0.5 * 1.0
        assert rep.upper[0, 2] == pytest.approx(0.375, abs=1e-12)

    def test_corner_bound_exact_at_t2(self):
        rep = compute_bounds(self.a, self.z, self.table, 2)
        assert rep.upper[0, 2] == pytest.approx(0.25, abs=1e-12)
        assert rep.z_norms[0, 2] == pytest.approx(0.25, abs=1e-12)
        assert abs(rep.e_upper[0, 2]) <= 1e-10

    def test_validity(self):
        for t in (1, 2):
            rep = compute_bounds(self.a, self.z, self.table, t)
            finite = np.isfinite(rep.upper)
            assert np.all(rep.upper[finite] >= rep.z_norms[finite] - 1e-12)
            assert np.all(rep.lower <= rep.z_norms.diagonal() + 1e-12)


class TestInvalidDiagonal:
    def test_interior_rows_flagged_at_t1(self):
        # Scalar tridiag(-1, 2, -1): at t=1 the diagonal upper denominator
        # is exactly zero on rows with two interior neighbours.
        for n in (5, 6, 7):
            a = scalar_tridiag(n, -1.0, 2.0, -1.0)
            z = invert_block_tridiagonal(a)
            table = compute_tau_omega(a, NormKind.TWO, n - 1)
            rep = compute_bounds(a, z, table, 1)
            expected_invalid = {i for i in range(2, n - 2)}   # 0-based interior
            flagged = {i for i in range(n) if not rep.diag_upper_valid[i]}
            assert flagged == expected_invalid
            assert np.all(np.isinf(rep.upper[list(flagged), list(flagged)]))

    def test_invalid_becomes_valid_under_refinement(self):
        a = scalar_tridiag(5, -1.0, 2.0, -1.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO, 4)
        valid_t1 = compute_bounds(a, z, table, 1).diag_upper_valid
        valid_t2 = compute_bounds(a, z, table, 2).diag_upper_valid
        assert not valid_t1[2]
        assert valid_t2[2]

    def test_invalid_entries_excluded_from_max(self):
        a = scalar_tridiag(5, -1.0, 2.0, -1.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO, 4)
        rep = compute_bounds(a, z, table, 1)
        assert rep.max_eu is not None
        assert np.isfinite(rep.max_eu)
        assert 0.0 <= rep.max_eu < 1.0


def loop_bounds(a, z, table, t):
    """The per-entry loops compute_bounds replaced, with the block norms
    taken afresh from the matrix: (upper, lower, diag_valid, e_upper,
    max_el), max_el over the rows where E_l is defined."""
    n, kind = a.n, table.norm_kind
    eye_n = identity_norm(a.m, kind)
    na, nb, nc = (batch_norm(x, kind) for x in (a.diag, a.sup, a.sub))
    inv_na = batch_norm(solve_blocks(a.diag), kind)
    lower, diag_upper, diag_valid = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    for i in range(1, n + 1):
        tail = 0.0
        if i > 1:
            tail += table.tau_at(i - 1, t) * nc[i - 2]
        if i < n:
            tail += table.omega_at(i + 1, t) * nb[i - 1]
        lower[i - 1] = eye_n / (na[i - 1] + tail)
        den = 1.0 / inv_na[i - 1] - tail
        diag_upper[i - 1] = eye_n / den if den > 0.0 else np.inf
        diag_valid[i - 1] = den > 0.0
    z_norms = z.norm_grid(kind)
    upper = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                prod = float(np.prod([table.tau_at(k, t) for k in range(i, j)]))
            else:
                prod = float(np.prod([table.omega_at(k, t) for k in range(j + 1, i + 1)]))
            upper[i - 1, j - 1] = z_norms[j - 1, j - 1] * prod
        upper[i - 1, i - 1] = diag_upper[i - 1]
    e_upper, max_el = np.full((n, n), np.nan), None
    for i in range(n):
        for j in range(n):
            u = upper[i, j]
            if np.isfinite(u) and u > 0.0:
                e_upper[i, j] = (u - z_norms[i, j]) / u
            elif np.isfinite(u) and z_norms[i, j] == 0.0:
                e_upper[i, j] = 0.0
        if z_norms[i, i] > 0.0:
            e_lower = (z_norms[i, i] - lower[i]) / z_norms[i, i]
            max_el = e_lower if max_el is None else max(max_el, e_lower)
    return upper, lower, diag_valid, e_upper, max_el


class TestLoopReference:
    def test_bitwise_equal_to_loops(self):
        rng = np.random.default_rng(23)
        # Scalar inputs are dominant in every norm, random ones in theirs.
        cases = [(scalar_tridiag(6, -1.0, 2.0, -1.0), kind) for kind in ALL_KINDS]
        cases += [(scalar_tridiag(5, -0.5, 2.0, -1.0), kind) for kind in ALL_KINDS]
        for k in range(12):
            kind = ALL_KINDS[k % 4]
            cases.append((random_dominant_tridiag(rng, int(rng.integers(1, 9)), 1 + k % 3,
                                                  kind, target=(0.9, 0.99)[k % 2]), kind))
        for a, kind in cases:
            z = invert_block_tridiagonal(a)
            table = compute_tau_omega(a, kind)
            for t in range(1, table.t_max + 1):
                rep = compute_bounds(a, z, table, t)
                *arrays, max_el = loop_bounds(a, z, table, t)
                for x, y in zip((rep.upper, rep.lower, rep.diag_upper_valid, rep.e_upper),
                                arrays):
                    assert x.tobytes() == y.tobytes()
                assert np.float64(rep.max_el).tobytes() == np.float64(max_el).tobytes()


def loop_bounds_csv(rep):
    """The per-cell loop BoundsReport.write_csv replaced, as text."""
    def fmt(v: float) -> str:
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf"
        return "%.17g" % v

    lines = ["i,j,norm_Zij,u_ij,valid,E_u"]
    for i in range(rep.n):
        for j in range(rep.n):
            valid = 1 if np.isfinite(rep.upper[i, j]) else 0
            lines.append("%d,%d,%s,%s,%d,%s" % (
                i + 1, j + 1, fmt(rep.z_norms[i, j]), fmt(rep.upper[i, j]), valid,
                fmt(rep.e_upper[i, j])))
    return "\n".join(lines) + "\n"


class TestCsvLoopReference:
    """bounds_t<T>.csv is byte for byte what the per-cell loop wrote."""

    def assert_same_bytes(self, rep, tmp_path):
        p = tmp_path / "bounds.csv"
        rep.write_csv(p)
        assert p.read_bytes() == loop_bounds_csv(rep).encode()

    def test_every_norm_step_and_anchor(self, tmp_path):
        rng = np.random.default_rng(29)
        for k, kind in enumerate(ALL_KINDS):
            a = random_dominant_tridiag(rng, 4 + k, 1 + k % 3, kind)
            z = invert_block_tridiagonal(a)
            table = compute_tau_omega(a, kind)
            for t in range(1, table.t_max + 1):
                self.assert_same_bytes(compute_bounds(a, z, table, t), tmp_path)

    def test_invalid_diagonal(self, tmp_path):
        a = scalar_tridiag(5, -1.0, 2.0, -1.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO, 4)
        rep = compute_bounds(a, z, table, 1)
        assert not rep.diag_upper_valid.all()
        self.assert_same_bytes(rep, tmp_path)
        row33 = (tmp_path / "bounds.csv").read_text().splitlines()[13].split(",")
        assert row33[:2] == ["3", "3"] and row33[3:] == ["inf", "0", "nan"]

    def test_negative_infinity_prints_inf(self, tmp_path):
        upper = np.array([[-np.inf, 0.25], [np.nan, -0.0]])
        rep = BoundsReport(
            t=1, norm_kind=NormKind.TWO, upper=upper, lower=np.ones(2),
            diag_upper_valid=np.array([False, True]),
            z_norms=np.array([[np.inf, 1e-300], [-np.inf, 0.1]]),
            e_upper=np.array([[np.nan, -np.inf], [2.0, 1.0 / 3.0]]),
            max_eu=None, max_el=None, rho1=0.5, rho2=0.5)
        self.assert_same_bytes(rep, tmp_path)
        assert (tmp_path / "bounds.csv").read_text().splitlines()[1:] == [
            "1,1,inf,inf,0,nan",
            "1,2,1e-300,0.25,1,inf",
            "2,1,inf,nan,0,2",
            "2,2,0.10000000000000001,-0,1,0.33333333333333331"]


def write_steps(reports, tmp_path):
    """Write the reports in order, each reusing the previous one's text as
    run_bounds_chain does, and check every file against the loop."""
    text = None
    files = []
    for k, rep in enumerate(reports):
        p = tmp_path / f"bounds_s{k}.csv"
        text = rep.write_csv(p, text)
        assert p.read_bytes() == loop_bounds_csv(rep).encode()
        files.append(p.read_bytes())
    return files


def hand_report(upper, z_norms=None, e_upper=None):
    """A report with the given columns; norm_Zij and E_u default to NaN."""
    n = upper.shape[0]
    missing = np.full((n, n), np.nan)
    return BoundsReport(
        t=1, norm_kind=NormKind.TWO, upper=np.asarray(upper, dtype=float), lower=np.ones(n),
        diag_upper_valid=np.isfinite(np.diag(upper)),
        z_norms=missing if z_norms is None else z_norms,
        e_upper=missing if e_upper is None else e_upper,
        max_eu=None, max_el=None, rho1=0.5, rho2=0.5)


class TestBoundValidity:
    """check_bound_validity's slack is relative to the norm it compares
    against: one ulp of a 1e8 norm (about 1.5e-8) is rounding, a relative
    gap of 1e-6 is a violation."""

    NORMS = np.array([[1e8, 1e8], [1.0, 1.0]])

    def check(self, upper_12=1e8, lower_1=1.0):
        upper = self.NORMS.copy()
        upper[0, 1] = upper_12
        rep = hand_report(upper, self.NORMS)
        rep = dataclasses.replace(rep, lower=np.array([lower_1, 1.0]))
        return check_bound_validity({1: rep})

    def test_upper_one_ulp_below_passes(self):
        assert self.check(upper_12=np.nextafter(1e8, 0.0)) == []

    def test_upper_relatively_below_fails(self):
        failures = self.check(upper_12=1e8 * (1.0 - 1e-6))
        assert len(failures) == 1 and "upper bound below ||Z_12||" in failures[0]

    def test_lower_one_ulp_above_passes(self):
        assert self.check(lower_1=np.nextafter(1e8, np.inf)) == []

    def test_lower_relatively_above_fails(self):
        failures = self.check(lower_1=1e8 * (1.0 + 1e-6))
        assert len(failures) == 1 and "lower bound above ||Z_11||" in failures[0]


class TestCsvStepReuse:
    """Each step's bounds_t<T>.csv keeps the previous step's text only
    where the bits repeat, and stays byte for byte the per-cell loop's."""

    def test_run_bounds_chain_every_step(self, tmp_path):
        rng = np.random.default_rng(5)
        cases = ((random_dominant_tridiag(rng, 20, 2, NormKind.TWO, target=0.5), NormKind.TWO),
                 (random_dominant_tridiag(rng, 9, 3, NormKind.FRO), NormKind.FRO),
                 (scalar_tridiag(5, -1.0, 2.0, -1.0), NormKind.TWO))
        for k, (a, kind) in enumerate(cases):
            chain = run_bounds_chain(a, kind, tmp_path / f"case{k}", ("bounds",))
            assert sorted(chain.reports) == list(range(1, a.n))
            for t, rep in chain.reports.items():
                assert chain.artifacts[f"bounds_t{t}"].read_bytes() == loop_bounds_csv(rep).encode()
        # The scalar case's step 1 has an invalid diagonal bound (valid = 0);
        # step 2 makes it finite again.
        rows = [(tmp_path / "case2" / f"bounds_t{t}.csv").read_text().splitlines()[13].split(",")
                for t in (1, 2)]
        assert rows[0][:2] == rows[1][:2] == ["3", "3"]
        assert rows[0][3:] == ["inf", "0", "nan"] and rows[1][4] == "1"

    def test_later_steps_repeat(self, tmp_path):
        rng = np.random.default_rng(5)
        a = random_dominant_tridiag(rng, 20, 2, NormKind.TWO, target=0.5)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO)
        files = write_steps([compute_bounds(a, z, table, t) for t in range(1, 20)], tmp_path)
        # Steps 12..19 repeat bitwise: every file from bounds_t12 on is equal.
        assert files[11:] == [files[11]] * 8 and files[10] != files[11]

    def test_signed_zero_and_infinity_flips(self, tmp_path):
        # Between steps each float column has a place that flips 0.0 <-> -0.0
        # (printed 0 and -0), u and E_u one that flips inf <-> -inf (both
        # printed inf); NaN repeats, and the size changes, as do whole
        # columns that turn NaN.
        def rep(zero, inf, z_zero):
            upper = np.array([[1.5, zero], [inf, np.nan]])
            z = np.array([[z_zero, 0.25], [np.nan, 1e-300]])
            return hand_report(upper, z, np.array([[zero, -inf], [np.nan, z_zero]]))

        a, b = rep(0.0, np.inf, -0.0), rep(-0.0, -np.inf, 0.0)
        wide = hand_report(np.array([[0.0, 1.0, -0.0], [2.0, np.inf, 3.0], [0.5, 0.5, 0.5]]))
        files = write_steps([a, b, a, b, b, wide, a, hand_report(a.upper), a], tmp_path)
        assert files[0].splitlines()[1:] == [b"1,1,-0,1.5,1,0", b"1,2,0.25,0,1,inf",
                                             b"2,1,nan,inf,0,nan", b"2,2,1e-300,nan,0,-0"]
        assert files[1].splitlines()[1:] == [b"1,1,0,1.5,1,-0", b"1,2,0.25,-0,1,inf",
                                             b"2,1,nan,inf,0,nan", b"2,2,1e-300,nan,0,0"]


class TestComputeBoundsLaplacian:
    def test_t1_maxima(self):
        a = build_example("ex2.1")
        z = invert_block_tridiagonal(a)
        rep = compute_bounds(a, z, laplacian_table(), 1)
        assert rep.max_eu == pytest.approx(0.84478, abs=5e-4)
        assert rep.max_el == pytest.approx(0.91039, abs=5e-4)

    def test_errors_in_unit_range(self):
        a = build_example("ex2.1")
        z = invert_block_tridiagonal(a)
        rep = compute_bounds(a, z, laplacian_table(), 4)
        finite = np.isfinite(rep.e_upper)
        assert np.all(rep.e_upper[finite] >= -1e-12)
        assert np.all(rep.e_upper[finite] <= 1.0)
        zd = rep.z_norms.diagonal()
        e_lower = (zd - rep.lower) / zd
        assert np.all(e_lower >= -1e-12)
        assert np.all(e_lower <= 1.0)
        assert rep.max_el == e_lower.max()


class TestReportOutputs:
    def test_csv_layout(self, tmp_path):
        a = scalar_tridiag(5, -1.0, 2.0, -1.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO, 4)
        rep = compute_bounds(a, z, table, 1)
        p = tmp_path / "bounds.csv"
        rep.write_csv(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "i,j,norm_Zij,u_ij,valid,E_u"
        assert len(lines) == 1 + 25
        row33 = lines[1 + 2 * 5 + 2].split(",")
        assert row33[:2] == ["3", "3"]
        assert row33[3] == "inf" and row33[4] == "0" and row33[5] == "nan"

    def test_summary_keys(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO, 2)
        doc = compute_bounds(a, z, table, 2).summary_dict()
        assert set(doc) == {"t", "max_Eu", "max_El", "rho1", "rho2"}
        assert doc["t"] == 2

    def test_n1_summary_has_null_eu(self):
        a = scalar_tridiag(1, 0.0, 2.0, 0.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO)
        rep = compute_bounds(a, z, table, 1)
        assert rep.max_eu is None
        assert rep.max_el is not None

    def test_t_out_of_range(self):
        a = scalar_tridiag(3, -1.0, 2.0, -1.0)
        z = invert_block_tridiagonal(a)
        table = compute_tau_omega(a, NormKind.TWO, 2)
        with pytest.raises(ValueError, match="outside"):
            compute_bounds(a, z, table, 3)
