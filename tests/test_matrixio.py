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
