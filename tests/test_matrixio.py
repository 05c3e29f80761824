import json

import numpy as np
import pytest

from blockdom import (BlockTridiagonalMatrix, GeneralBlockMatrix,
                      MatrixFileError, NormKind, build_example,
                      dump_json_text, read_matrix_file, write_matrix_file)
from blockdom.matrixio import write_json_file

from helpers import random_dominant_tridiag, random_general


def awkward_tridiag():
    # Values chosen to stress decimal round tripping.
    diag = np.array([[[0.1 + (1 / 3) * 1j]], [[209.999 - 1e-17j]]])
    sup = np.array([[[-99.999 + np.pi * 1j]]])
    sub = np.array([[[1 / 7]]])
    return BlockTridiagonalMatrix(diag=diag, sup=sup, sub=sub)


class TestRoundTrip:
    def test_tridiag_bit_exact(self, tmp_path):
        a = awkward_tridiag()
        p = tmp_path / "m.json"
        write_matrix_file(p, a)
        b = read_matrix_file(p)
        assert isinstance(b, BlockTridiagonalMatrix)
        assert np.array_equal(a.diag, b.diag)
        assert np.array_equal(a.sup, b.sup)
        assert np.array_equal(a.sub, b.sub)

    def test_random_tridiag_bit_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        a = random_dominant_tridiag(rng, 5, 3, NormKind.TWO)
        p = tmp_path / "m.json"
        write_matrix_file(p, a)
        b = read_matrix_file(p)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_general_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        g = random_general(rng, 3, 2)
        p = tmp_path / "g.json"
        write_matrix_file(p, g)
        h = read_matrix_file(p)
        assert isinstance(h, GeneralBlockMatrix)
        assert np.array_equal(g.blocks, h.blocks)

    def test_example_matrix_round_trip(self, tmp_path):
        a = build_example("ex2.1")
        p = tmp_path / "ex21.json"
        write_matrix_file(p, a)
        b = read_matrix_file(p)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_write_is_deterministic(self, tmp_path):
        a = awkward_tridiag()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_matrix_file(p1, a)
        write_matrix_file(p2, a)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_valid_json(self, tmp_path):
        p = tmp_path / "m.json"
        write_matrix_file(p, awkward_tridiag())
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == "1"
        assert doc["kind"] == "block_tridiagonal"
        assert set(doc["blocks"]) == {"A", "B", "C"}


def write_doc(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    return p


def minimal_doc():
    block = [{"re": 2.0, "im": 0.0}]
    return {
        "schema_version": "1", "kind": "block_tridiagonal", "n": 2, "m": 1,
        "blocks": {"A": [block, block], "B": [block], "C": [block]},
    }


class TestValidation:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(MatrixFileError, match="invalid JSON"):
            read_matrix_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFileError, match="cannot read"):
            read_matrix_file(tmp_path / "nope.json")

    def test_unknown_top_level_field(self, tmp_path):
        doc = minimal_doc()
        doc["comment"] = "hi"
        with pytest.raises(MatrixFileError, match="unknown field"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_wrong_schema_version(self, tmp_path):
        doc = minimal_doc()
        doc["schema_version"] = "2"
        with pytest.raises(MatrixFileError, match="schema_version"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_missing_super_blocks(self, tmp_path):
        doc = minimal_doc()
        del doc["blocks"]["B"]
        with pytest.raises(MatrixFileError, match=r"\$\.blocks"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_wrong_block_count_names_path(self, tmp_path):
        doc = minimal_doc()
        doc["blocks"]["C"] = []
        with pytest.raises(MatrixFileError, match=r"\$\.blocks\.C"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_wrong_entry_count(self, tmp_path):
        doc = minimal_doc()
        doc["blocks"]["A"][0] = [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]
        with pytest.raises(MatrixFileError, match=r"\$\.blocks\.A\[0\]"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_entry_extra_key(self, tmp_path):
        doc = minimal_doc()
        doc["blocks"]["A"][0][0]["note"] = 1
        with pytest.raises(MatrixFileError, match="unknown field"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_entry_non_numeric(self, tmp_path):
        doc = minimal_doc()
        doc["blocks"]["A"][0][0]["re"] = "x"
        with pytest.raises(MatrixFileError, match="must be numbers"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_entry_boolean_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["blocks"]["A"][0][0]["re"] = True
        with pytest.raises(MatrixFileError, match="must be numbers"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_integer_past_float_range(self, tmp_path):
        block = [{"re": 10 ** 400, "im": 0}]
        doc = {"schema_version": "1", "kind": "general_block", "n": 1, "m": 1,
               "blocks": {"grid": [[block]]}}
        with pytest.raises(MatrixFileError, match=r"\$\.blocks\.grid\[0\]\[0\]\[0\]\.re"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_nonpositive_n(self, tmp_path):
        doc = minimal_doc()
        doc["n"] = 0
        with pytest.raises(MatrixFileError, match=r"\$\.n"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_unknown_kind(self, tmp_path):
        doc = minimal_doc()
        doc["kind"] = "dense"
        with pytest.raises(MatrixFileError, match="unknown kind"):
            read_matrix_file(write_doc(tmp_path, doc))

    def test_general_grid_shape(self, tmp_path):
        block = [{"re": 1.0, "im": 0.0}]
        doc = {"schema_version": "1", "kind": "general_block", "n": 2, "m": 1,
               "blocks": {"grid": [[block, block]]}}
        with pytest.raises(MatrixFileError, match="block rows"):
            read_matrix_file(write_doc(tmp_path, doc))


def deep_doc():
    """n = 3, m = 2 tridiagonal document with distinct entries."""
    def block(k):
        return [{"re": float(k + e), "im": -0.5 * e} for e in range(4)]
    return {"schema_version": "1", "kind": "block_tridiagonal", "n": 3, "m": 2,
            "blocks": {"A": [block(10 * k) for k in range(3)],
                       "B": [block(1), block(2)], "C": [block(3), block(4)]}}


class TestEntryErrorsDeep:
    """An error anywhere in a block list names that entry's exact field."""

    @pytest.mark.parametrize("value, message", [
        ("x", "entry parts must be numbers"),
        (None, "entry parts must be numbers"),
        (True, "entry parts must be numbers"),
        (float("nan"), "entry parts must be finite"),
        (float("inf"), "entry parts must be finite"),
        (float("-inf"), "entry parts must be finite"),
        (10 ** 400, "entry parts must be finite"),
    ])
    def test_bad_value(self, tmp_path, value, message):
        doc = deep_doc()
        doc["blocks"]["B"][1][3]["im"] = value
        with pytest.raises(MatrixFileError) as exc:
            read_matrix_file(write_doc(tmp_path, doc))
        assert exc.value.field_path == "$.blocks.B[1][3].im"
        assert str(exc.value) == f"$.blocks.B[1][3].im: {message}"

    def test_nan_and_infinity_literals(self, tmp_path):
        for literal in ("NaN", "Infinity", "-Infinity"):
            doc = deep_doc()
            doc["blocks"]["A"][2][1]["re"] = "@"
            p = write_doc(tmp_path, doc)
            p.write_text(p.read_text().replace('"@"', literal))
            assert literal in p.read_text()
            with pytest.raises(MatrixFileError, match="must be finite") as exc:
                read_matrix_file(p)
            assert exc.value.field_path == "$.blocks.A[2][1].re"

    def test_extra_and_missing_key(self, tmp_path):
        doc = deep_doc()
        doc["blocks"]["C"][1][2]["note"] = 1.0
        with pytest.raises(MatrixFileError, match=r"unknown field\(s\) \['note'\]") as exc:
            read_matrix_file(write_doc(tmp_path, doc))
        assert exc.value.field_path == "$.blocks.C[1][2]"
        doc = deep_doc()
        del doc["blocks"]["C"][1][2]["re"]
        with pytest.raises(MatrixFileError, match=r"missing field\(s\) \['re'\]") as exc:
            read_matrix_file(write_doc(tmp_path, doc))
        assert exc.value.field_path == "$.blocks.C[1][2]"

    def test_entry_and_block_shape(self, tmp_path):
        doc = deep_doc()
        doc["blocks"]["A"][1][3] = [1.0, 0.0]
        with pytest.raises(MatrixFileError, match="expected an object") as exc:
            read_matrix_file(write_doc(tmp_path, doc))
        assert exc.value.field_path == "$.blocks.A[1][3]"
        doc = deep_doc()
        doc["blocks"]["B"][1] = doc["blocks"]["B"][1][:3]
        with pytest.raises(MatrixFileError, match="expected a list of 4 entries") as exc:
            read_matrix_file(write_doc(tmp_path, doc))
        assert exc.value.field_path == "$.blocks.B[1]"

    def test_general_grid_path(self, tmp_path):
        block = [{"re": 1.0, "im": 0.0}] * 4
        grid = [[block, block], [block, [{"re": 1.0, "im": 0.0}] * 3 + [{"re": 1.0, "im": "0"}]]]
        doc = {"schema_version": "1", "kind": "general_block", "n": 2, "m": 2,
               "blocks": {"grid": grid}}
        with pytest.raises(MatrixFileError, match="must be numbers") as exc:
            read_matrix_file(write_doc(tmp_path, doc))
        assert exc.value.field_path == "$.blocks.grid[1][1][3].im"


class TestEntryValuesExact:
    """Entries parse to the bits float() gives them, integers and signed
    zeros included."""

    VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
              2 ** 53 + 1, -(2 ** 53 + 1), 0, 7, -3, 2 ** 63 + 1, 2 ** 64 + 3, 10 ** 300,
              0.1, 1 / 3)

    def read_entries(self, tmp_path, re, im):
        """The entries of one m = len(re) block cycling through re and im."""
        m = len(re)
        block = [{"re": r, "im": i} for r, i in zip(re * m, im * m)]
        doc = {"schema_version": "1", "kind": "general_block", "n": 1, "m": m,
               "blocks": {"grid": [[block]]}}
        return read_matrix_file(write_doc(tmp_path, doc)).blocks.ravel()

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    def test_mixed_values(self, tmp_path):
        values = list(self.VALUES)
        got = self.read_entries(tmp_path, values, values[::-1])
        want_re = self.bits([float(v) for v in values] * len(values))
        want_im = self.bits([float(v) for v in values[::-1]] * len(values))
        assert np.array_equal(self.bits(got.real), want_re)
        assert np.array_equal(self.bits(got.imag), want_im)

    @pytest.mark.parametrize("values", [
        [0, 1, -2, 2 ** 53 + 1],             # integers only
        [2 ** 64 - 1, 2 ** 63, 2 ** 53 + 3, 1],   # past int64, unsigned
        [-0.0, -0.0, 0.0, -0.0],             # signed zeros only
    ])
    def test_uniform_values(self, tmp_path, values):
        got = self.read_entries(tmp_path, values, [-v for v in values])
        assert np.array_equal(self.bits(got.real), self.bits([float(v) for v in values] * 4))
        assert np.array_equal(self.bits(got.imag), self.bits([float(-v) for v in values] * 4))


class TestJsonDump:
    def test_floats_17g(self):
        text = dump_json_text({"x": 0.1})
        assert "0.10000000000000001" in text
        assert json.loads(text)["x"] == 0.1

    def test_nonfinite_as_strings(self):
        doc = json.loads(dump_json_text({"a": float("inf"), "b": float("nan")}))
        assert doc == {"a": "inf", "b": "nan"}

    def test_complex_as_object(self):
        doc = json.loads(dump_json_text({"z": 1 + 2j}))
        assert doc["z"] == {"re": 1.0, "im": 2.0}

    def test_nested_and_deterministic(self, tmp_path):
        obj = {"list": [1, 2.5, None, True], "nested": {"k": [0.1, float("inf")]}}
        assert dump_json_text(obj) == dump_json_text(obj)
        p = tmp_path / "o.json"
        write_json_file(p, obj)
        assert json.loads(p.read_text())["list"] == [1, 2.5, None, True]

    def test_numpy_scalars(self):
        doc = json.loads(dump_json_text({
            "i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True),
            "arr": np.array([1.0, 2.0])}))
        assert doc == {"i": 3, "f": 0.5, "b": True, "arr": [1.0, 2.0]}
