import filecmp
import importlib.metadata
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockdom import (BlockTridiagonalMatrix, build_example, build_tridiag_toeplitz, kron_sum,
                      read_matrix_file, write_matrix_file)
from blockdom.cli import main

from helpers import scalar_tridiag

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The body of the wrapper pip writes for a console script, with argv[0]
# set to the command name since ``python -c`` leaves it as "-c".
CONSOLE_SCRIPT = """\
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = {name!r}
    sys.exit({func}())
"""


def declared_script(name):
    """The console_scripts entry point pyproject.toml declares for name."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] does not declare {name!r}"
    return importlib.metadata.EntryPoint(name, scripts[name], "console_scripts")


def run_console_script(ep, *args):
    code = CONSOLE_SCRIPT.format(module=ep.module, import_name=ep.attr.split(".")[0],
                                 name=ep.name, func=ep.attr)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)


def distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.fixture()
def laplacian_file(tmp_path):
    p = tmp_path / "lap.json"
    write_matrix_file(p, build_example("ex2.1"))
    return p


def write_scalar(tmp_path, name, sub, diag, sup, n=3):
    p = tmp_path / name
    write_matrix_file(p, scalar_tridiag(n, sub, diag, sup))
    return p


class TestCheck:
    def test_strict_example(self, laplacian_file, capsys):
        assert main(["check", "--input", str(laplacian_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dominant"] is True and doc["strict"] is True
        assert doc["norm"] == "two"
        assert len(doc["row_sums"]) == 9

    def test_boundary_case_not_strict(self, tmp_path, capsys):
        p = write_scalar(tmp_path, "m.json", -1.0, 2.0, -1.0)
        assert main(["check", "--input", str(p)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dominant"] is True and doc["strict"] is False

    def test_not_dominant(self, tmp_path, capsys):
        p = write_scalar(tmp_path, "m.json", -2.0, 1.0, -2.0)
        assert main(["check", "--input", str(p)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["dominant"] is False

    def test_singular_diagonal_row(self, tmp_path, capsys):
        p = write_scalar(tmp_path, "m.json", -1.0, 0.0, -1.0)
        assert main(["check", "--input", str(p)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["singular_rows"] == [1, 2, 3]
        assert doc["row_sums"][0] == "inf"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", "--input", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": "1"}')
        assert main(["check", "--input", str(p)]) == 1
        assert "missing field" in capsys.readouterr().err


class TestInvert:
    def test_writes_inverse_and_residual(self, laplacian_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["invert", "--input", str(laplacian_file),
                     "--output", str(out)]) == 0
        assert "residual" in capsys.readouterr().out
        doc = json.loads((out / "residual.json").read_text())
        assert doc["residual"] <= 1e-8
        assert doc["condition_estimate"] >= 1.0
        inv = json.loads((out / "inverse.json").read_text())
        assert inv["kind"] == "general_block"

    def test_zero_superdiagonal_block(self, tmp_path):
        # [[2, 0], [-1, 2]] is invertible; a zero B_1 needs no inversion.
        p = write_scalar(tmp_path, "m.json", -1.0, 2.0, 0.0, n=2)
        out = tmp_path / "o"
        assert main(["invert", "--input", str(p), "--output", str(out)]) == 0
        inv = read_matrix_file(out / "inverse.json").to_dense()
        expected = np.linalg.inv(np.array([[2.0, 0.0], [-1.0, 2.0]]))
        assert np.abs(inv - expected).max() <= 1e-15

    def test_singular_schur_complement_named(self, tmp_path, capsys):
        # Every block is 1: the blocks are nonsingular, the matrix is not,
        # and S_1 = A_1 - B_1 A_2^{-1} C_1 = 0.
        p = write_scalar(tmp_path, "m.json", 1.0, 1.0, 1.0, n=2)
        assert main(["invert", "--input", str(p),
                     "--output", str(tmp_path / "o")]) == 3
        assert "S_1 inversion" in capsys.readouterr().err

    def test_singular_diagonal_block_named(self, tmp_path, capsys):
        # [[0, 1], [1, 0]] is invertible, but its diagonal blocks are not.
        p = write_scalar(tmp_path, "m.json", 1.0, 0.0, 1.0, n=2)
        assert main(["invert", "--input", str(p),
                     "--output", str(tmp_path / "o")]) == 3
        assert "A_1 inversion" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-160, 2.0 ** -530])
    def test_tiny_scale_is_no_overflow(self, tmp_path, scale):
        # Scaling keeps ex2.1 strictly dominant; its inverse's entries
        # reach about 1e160, which is finite, so both commands succeed.
        a = build_example("ex2.1")
        p = tmp_path / "m.json"
        write_matrix_file(p, BlockTridiagonalMatrix(
            diag=scale * a.diag, sup=scale * a.sup, sub=scale * a.sub))
        assert main(["invert", "--input", str(p), "--output", str(tmp_path / "i")]) == 0
        assert main(["bounds", "--input", str(p), "--output", str(tmp_path / "b"),
                     "--t", "all"]) == 0
        z = read_matrix_file(tmp_path / "i" / "inverse.json")
        assert np.abs(z.blocks).max() > 1e150

    def test_inverse_whose_block_norms_overflow(self, tmp_path, capsys):
        # A_i = x [[1, 3], [0, 1]] with x = 2^-1022: Z_ii = [[1, -3], [0, 1]] / x
        # has finite entries, but its second column sums to 2^1024 = inf, so
        # the one-norm bounds would turn to NaN. Both commands exit 3 at Z.
        x = 2.0 ** -1022
        blk = np.array([[x, 3.0 * x], [0.0, x]], dtype=complex)
        p = tmp_path / "m.json"
        write_matrix_file(p, BlockTridiagonalMatrix(
            diag=np.array([blk, blk]), sup=np.zeros((1, 2, 2)), sub=np.zeros((1, 2, 2))))
        assert main(["invert", "--input", str(p), "--output", str(tmp_path / "i")]) == 3
        assert main(["bounds", "--input", str(p), "--output", str(tmp_path / "b"),
                     "--t", "all", "--norm", "one"]) == 3
        err = capsys.readouterr().err
        assert err.count("recurrence overflow at Z: max entry magnitude 1.348e+308 "
                         "exceeds 8.988e+307") == 2

    def test_single_block(self, tmp_path):
        p = write_scalar(tmp_path, "m.json", 0.0, 2.0, 0.0, n=1)
        out = tmp_path / "o"
        assert main(["invert", "--input", str(p), "--output", str(out)]) == 0
        inv = json.loads((out / "inverse.json").read_text())
        assert inv["blocks"]["grid"][0][0][0]["re"] == 0.5

    def test_general_matrix_rejected(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        write_matrix_file(p, build_example("ex3.1a"))
        assert main(["invert", "--input", str(p),
                     "--output", str(tmp_path / "o")]) == 1
        assert "block_tridiagonal" in capsys.readouterr().err


class TestBounds:
    def test_all_steps_match_golden(self, laplacian_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bounds", "--input", str(laplacian_file),
                     "--output", str(out)]) == 0
        summaries = json.loads((out / "bounds_summary.json").read_text())
        assert [s["t"] for s in summaries] == list(range(1, 9))
        assert abs(summaries[0]["max_Eu"] - 0.84478) <= 5e-4
        assert abs(summaries[3]["max_Eu"] - 0.20899) <= 5e-4
        assert summaries[7]["max_Eu"] <= 1e-10
        assert abs(summaries[7]["max_El"] - 0.90529) <= 5e-4
        for t in range(1, 9):
            assert (out / f"bounds_t{t}.csv").exists()
        assert "t=8" in capsys.readouterr().out

    def test_norms_at_k20_match_dense_inverse(self, tmp_path):
        # N = 400: the four-sequence inverse was silently wrong here.
        a = kron_sum(build_tridiag_toeplitz(20, -1.0, 2.0, -1.0))
        p, out = tmp_path / "lap20.json", tmp_path / "out"
        write_matrix_file(p, a)
        assert main(["bounds", "--input", str(p), "--output", str(out), "--t", "1"]) == 0
        rows = np.loadtxt(out / "bounds_t1.csv", delimiter=",", skiprows=1)
        ref = np.linalg.inv(a.to_dense()).reshape(20, 20, 20, 20).transpose(0, 2, 1, 3)
        ref_norms = np.linalg.norm(ref, ord=2, axis=(-2, -1))
        assert rows.shape == (400, 6)
        got = rows[:, 2].reshape(20, 20)
        assert np.abs(got - ref_norms).max() <= 1e-12

    def test_single_step(self, laplacian_file, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--input", str(laplacian_file),
                     "--output", str(out), "--t", "4"]) == 0
        summaries = json.loads((out / "bounds_summary.json").read_text())
        assert len(summaries) == 1 and summaries[0]["t"] == 4
        assert not (out / "bounds_t1.csv").exists()

    def test_step_out_of_range(self, laplacian_file, tmp_path, capsys):
        assert main(["bounds", "--input", str(laplacian_file),
                     "--output", str(tmp_path / "o"), "--t", "9"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_step_not_positive(self, laplacian_file, tmp_path, capsys):
        for step, text in (("0", "t must be positive"),
                           ("abc", "t must be 'all' or an integer, not 'abc'")):
            assert main(["bounds", "--input", str(laplacian_file),
                         "--output", str(tmp_path / "o"), "--t", step]) == 1
            assert text in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_not_dominant_refused(self, tmp_path, capsys):
        p = write_scalar(tmp_path, "m.json", -2.0, 1.0, -2.0)
        assert main(["bounds", "--input", str(p),
                     "--output", str(tmp_path / "o")]) == 2
        assert "not row block diagonally dominant" in capsys.readouterr().err


class TestGershgorin:
    def test_explicit_box(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        write_matrix_file(p, build_example("ex3.1a"))
        out = tmp_path / "out"
        assert main(["gershgorin", "--input", str(p), "--output", str(out),
                     "--box=-1,9,-4,4", "--nx", "40", "--ny", "40"]) == 0
        assert "violations=0" in capsys.readouterr().out
        doc = json.loads((out / "region_summary.json").read_text())
        assert doc["box"] == [-1.0, 9.0, -4.0, 4.0]
        assert doc["union_count_new"] < doc["union_count_fv"]
        header = (out / "grid.csv").read_text().split("\n", 1)[0]
        assert header == "re,im,row,margin_new,margin_fv"

    def test_auto_box(self, tmp_path):
        p = tmp_path / "g.json"
        write_matrix_file(p, build_example("ex3.1a"))
        out = tmp_path / "out"
        assert main(["gershgorin", "--input", str(p), "--output", str(out),
                     "--nx", "20", "--ny", "20"]) == 0
        doc = json.loads((out / "region_summary.json").read_text())
        assert doc["box"][0] < 2.0 and doc["box"][1] > 6.0

    def test_bad_box(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        write_matrix_file(p, build_example("ex3.1a"))
        assert main(["gershgorin", "--input", str(p), "--box", "1,2,3"]) == 1
        assert "RE_MIN,RE_MAX,IM_MIN,IM_MAX" in capsys.readouterr().err
        assert main(["gershgorin", "--input", str(p), "--box=1,0,-1,1"]) == 1
        assert "RE_MIN < RE_MAX" in capsys.readouterr().err
        assert main(["gershgorin", "--input", str(p), "--box=1,a,-1,1"]) == 1
        assert "box 1,a,-1,1 has a bound that is not a number" in capsys.readouterr().err

    def test_non_finite_box(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        write_matrix_file(p, build_example("ex3.1a"))
        assert main(["gershgorin", "--input", str(p), "--output", str(tmp_path / "o"),
                     "--box=-inf,inf,-1,1"]) == 1
        err = capsys.readouterr().err
        assert "box -inf,inf,-1,1 has a non-finite bound" in err and "SVD" not in err
        assert not (tmp_path / "o").exists()

    def test_tridiagonal_input_accepted(self, laplacian_file, tmp_path):
        out = tmp_path / "out"
        assert main(["gershgorin", "--input", str(laplacian_file),
                     "--output", str(out), "--nx", "10", "--ny", "10"]) == 0
        doc = json.loads((out / "region_summary.json").read_text())
        assert len(doc["counts_new"]) == 9


class TestReproduce:
    def test_fixed_example_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["reproduce", "ex2.1", "--output", str(out)]) == 0
        assert "ex2.1: PASS" in capsys.readouterr().out
        for name in ("matrix.json", "dominance.json", "residual.json",
                     "bounds_summary.json", "bounds_table.txt"):
            assert (out / name).exists()

    def test_artifacts_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce", "ex2.1", "--output", str(a)]) == 0
        assert main(["reproduce", "ex2.1", "--output", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_single_step_compares_only_that_step(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["reproduce", "ex2.1", "--t", "3", "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ex2.1: PASS" in text and "missing" not in text
        assert (out / "bounds_t3.csv").exists()
        assert not (out / "bounds_t1.csv").exists()

    def test_step_out_of_range_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["reproduce", "ex2.1", "--t", "9", "--output", str(out)]) == 1
        assert "t=9 exceeds the refinement range 1..8" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_golden_table_skipped_off_the_two_norm(self, tmp_path, capsys):
        # The golden tables hold two-norm maxima; other norms skip them.
        assert main(["reproduce", "ex2.1", "--norm", "inf",
                     "--output", str(tmp_path / "inf")]) == 0
        text = capsys.readouterr().out
        assert "INFO: golden table skipped" in text and "ex2.1: PASS" in text
        # ex2.1 is not block dominant in the Frobenius norm.
        assert main(["reproduce", "ex2.1", "--norm", "fro",
                     "--output", str(tmp_path / "fro")]) == 4

    @pytest.mark.parametrize("grid", [("--nx", "7", "--ny", "7"),
                                      ("--nx", "10", "--ny", "10", "--norm", "inf")])
    def test_coarse_grid_covers_every_eigenvalue(self, grid, tmp_path, capsys):
        # No node of these grids lies near enough to every eigenvalue for
        # its margin to reach 1; the cover is read at the eigenvalue itself.
        assert main(["reproduce", "ex3.1a", *grid, "--output", str(tmp_path / "o")]) == 0
        assert "PASS: every eigenvalue covered" in capsys.readouterr().out

    def test_seeded_example_needs_seed(self, tmp_path, capsys):
        assert main(["reproduce", "ex2.3", "--output", str(tmp_path / "o")]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_seeded_example_with_seed(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["reproduce", "ex2.3", "--seed", "42",
                     "--output", str(out)]) == 0
        assert "ex2.3: PASS" in capsys.readouterr().out

    def test_unknown_experiment(self, tmp_path):
        assert main(["reproduce", "ex9.9"]) == 1


class TestSharedPipeline:
    """The CLI commands and the experiments run one bounds pipeline and
    one region pipeline, so on the same matrix they write the same bytes."""

    def test_bounds_match_reproduce(self, laplacian_file, tmp_path):
        cli, exp = tmp_path / "cli", tmp_path / "exp"
        assert main(["bounds", "--input", str(laplacian_file), "--output", str(cli),
                     "--t", "all"]) == 0
        assert main(["reproduce", "ex2.1", "--output", str(exp)]) == 0
        names = sorted(p.name for p in cli.iterdir())
        assert names == sorted([f"bounds_t{t}.csv" for t in range(1, 9)]
                               + ["bounds_summary.json"])
        match, mismatch, errors = filecmp.cmpfiles(cli, exp, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_gershgorin_matches_reproduce(self, tmp_path):
        p = tmp_path / "g.json"
        write_matrix_file(p, build_example("ex3.1a"))
        cli, exp = tmp_path / "cli", tmp_path / "exp"
        grid = ["--box=-1,9,-4,4", "--nx", "61", "--ny", "41"]
        assert main(["gershgorin", "--input", str(p), "--output", str(cli), *grid]) == 0
        assert main(["reproduce", "ex3.1a", "--output", str(exp), *grid]) == 0
        assert sorted(q.name for q in cli.iterdir()) == ["grid.csv", "region_summary.json"]
        assert filecmp.cmp(cli / "grid.csv", exp / "grid.csv", shallow=False)
        # The experiment's summary adds only its eigenvalue cover.
        ours = json.loads((cli / "region_summary.json").read_text())
        theirs = json.loads((exp / "region_summary.json").read_text())
        assert len(theirs.pop("eigen_cover")) == 4
        assert list(ours.items()) == list(theirs.items())

    def test_invert_matches_reproduce(self, laplacian_file, tmp_path):
        cli, exp = tmp_path / "cli", tmp_path / "exp"
        assert main(["invert", "--input", str(laplacian_file), "--output", str(cli)]) == 0
        assert main(["reproduce", "ex2.1", "--output", str(exp)]) == 0
        assert sorted(p.name for p in cli.iterdir()) == ["inverse.json", "residual.json"]
        assert filecmp.cmp(cli / "residual.json", exp / "residual.json", shallow=False)


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "m.json"
        write_matrix_file(p, scalar_tridiag(3, -1.0, 2.0, -1.0))
        proc = subprocess.run(
            [sys.executable, "-m", "blockdom", "check", "--input", str(p)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dominant"] is True

    def test_console_script_installed(self):
        ep = declared_script("blockdom")
        assert callable(ep.load())
        ok = run_console_script(ep, "--help")
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.startswith("usage: blockdom")
        assert "reproduce" in ok.stdout
        bad = run_console_script(ep, "no-such-command")
        assert bad.returncode == 1, bad.stderr

    @pytest.mark.skipif(not distribution_installed("blockdom"),
                        reason="the blockdom distribution is not installed")
    def test_console_script_on_path(self):
        exe = shutil.which("blockdom")
        assert exe is not None
        installed = [ep.value for ep in importlib.metadata.distribution(
            "blockdom").entry_points
            if ep.group == "console_scripts" and ep.name == "blockdom"]
        assert installed == [declared_script("blockdom").value]
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_no_command_is_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "blockdom"],
                              capture_output=True, text=True)
        assert proc.returncode == 1

    def test_help_exits_zero(self):
        proc = subprocess.run([sys.executable, "-m", "blockdom", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "reproduce" in proc.stdout
