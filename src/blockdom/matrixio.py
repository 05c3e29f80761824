"""JSON serialization of block matrices, and the float text of the CSV
artifacts.

File layout (schema_version "1"):

    {
      "schema_version": "1",
      "kind": "block_tridiagonal",          # or "general_block"
      "n": 3, "m": 2,
      "blocks": {
        "A": [block, ...],                  # n diagonal blocks
        "B": [block, ...],                  # n-1 super-diagonal blocks
        "C": [block, ...]                   # n-1 sub-diagonal blocks
      }
    }

A general_block file stores "blocks": {"grid": [[block, ...], ...]} with an
n-by-n grid. Each block is a row-major list of m*m entries written as
{"re": float, "im": float}. Floats are emitted with 17 significant digits
so write/read round trips are bit exact. Unknown fields are rejected.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .structures import BlockTridiagonalMatrix, GeneralBlockMatrix

SCHEMA_VERSION = "1"
KIND_TRIDIAG = "block_tridiagonal"
KIND_GENERAL = "general_block"


def dump_json_text(obj, indent: int = 0) -> str:
    """Render JSON with floats at 17 significant digits.

    Non-finite floats become the strings "inf", "-inf" and "nan" so the
    output stays strictly valid JSON; complex numbers become re/im
    objects. Dict keys keep insertion order, so equal inputs give
    byte-identical output.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {type(k).__name__}")
            items.append('%s%s: %s' % (inner, json.dumps(k), dump_json_text(v, indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [dump_json_text(v, indent + 1) for v in seq]
        if all(len(p) <= 24 and "\n" not in p for p in parts):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if np.isnan(v):
            return '"nan"'
        if np.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return _fmt(v)
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return '{"re": %s, "im": %s}' % (_fmt(c.real), _fmt(c.imag))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} as JSON")


def _write_text(path, text: str) -> None:
    """Write through a temporary file, so that a reader never sees a
    partly written artifact."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_json_file(path, obj) -> None:
    _write_text(path, dump_json_text(obj) + "\n")


class MatrixFileError(ValueError):
    """Malformed matrix file; ``field_path`` names the offending field."""

    def __init__(self, message: str, field_path: str = ""):
        if field_path:
            message = f"{field_path}: {message}"
        super().__init__(message)
        self.field_path = field_path


def _fmt(v: float) -> str:
    return "%.17g" % v


def _csv_floats(values) -> np.ndarray:
    """The flattened ``values`` as floats, with -inf made inf: the CSV
    artifacts write either infinity as "inf"."""
    x = np.asarray(values, dtype=float).ravel()
    return np.where(np.isinf(x), np.inf, x)


def fill_floats(template: str, values) -> str:
    """``template`` with its ``%.17g`` slots filled, in order, from the
    flattened ``values``; either infinity is written "inf" and NaN "nan".

    One ``%`` over Python floats: the CSV writers bake their fixed
    columns into the template and pass the float columns here.
    """
    return template % tuple(_csv_floats(values).tolist())


def refill_floats(parts: list, values, prev_bits: np.ndarray | None) -> np.ndarray:
    """Put the ``%.17g`` text of the flattened ``values`` at
    ``parts[1::2]``, as ``fill_floats`` would write them, and return
    their bits for the next call.

    Only the slots whose bits differ from ``prev_bits`` are formatted
    again (every slot when ``prev_bits`` is None); the others keep the
    text ``parts`` holds. Bits, not ``==``: -0.0 and 0.0 print apart.
    """
    x = _csv_floats(values)
    bits = x.view(np.uint64)
    if prev_bits is None:
        parts[1::2] = map(_fmt, x.tolist())
        return bits
    changed = np.flatnonzero(bits != prev_bits)
    for k, v in zip((2 * changed + 1).tolist(), x[changed].tolist()):
        parts[k] = _fmt(v)
    return bits


def _list_json(template: str, count: int, indent: str) -> str:
    """A JSON list of ``count`` copies of ``template``, one per line."""
    if not count:
        return "[]"
    items = (",\n" + indent).join([template] * count)
    return "[\n" + indent + items + "\n" + indent[:-2] + "]"


def write_matrix_file(path, matrix) -> None:
    """Write a BlockTridiagonalMatrix or GeneralBlockMatrix as JSON."""
    if not isinstance(matrix, (BlockTridiagonalMatrix, GeneralBlockMatrix)):
        raise TypeError(f"cannot serialize {type(matrix).__name__}")
    # One %.17g template for every entry, filled in one call.
    block = "[" + ",".join(['{"re":%.17g,"im":%.17g}'] * matrix.m ** 2) + "]"
    if isinstance(matrix, BlockTridiagonalMatrix):
        kind = KIND_TRIDIAG
        stacks = (matrix.diag, matrix.sup, matrix.sub)
        blocks = '"A": %s,\n    "B": %s,\n    "C": %s' % tuple(
            _list_json(block, len(b), " " * 6) for b in stacks)
    else:
        kind = KIND_GENERAL
        stacks = (matrix.blocks,)
        row = "[" + (",\n" + " " * 8).join([block] * matrix.n) + "]"
        blocks = '"grid": [\n      %s\n    ]' % (",\n" + " " * 6).join([row] * matrix.n)
    entries = np.concatenate([b.ravel() for b in stacks])
    text = (
        "{\n"
        '  "schema_version": "%s",\n'
        '  "kind": "%s",\n'
        '  "n": %d,\n'
        '  "m": %d,\n'
        '  "blocks": {\n    ' % (SCHEMA_VERSION, kind, matrix.n, matrix.m)
        + fill_floats(blocks, np.stack([entries.real, entries.imag], axis=-1))
        + "\n  }\n}\n")
    _write_text(path, text)


def _require_keys(obj: dict, keys: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise MatrixFileError(f"expected an object, got {type(obj).__name__}", path)
    missing = keys - obj.keys()
    if missing:
        raise MatrixFileError(f"missing field(s) {sorted(missing)}", path)
    extra = obj.keys() - keys
    if extra:
        raise MatrixFileError(f"unknown field(s) {sorted(extra)}", path)


_ENTRY_KEYS = {"re", "im"}


def _parse_entry(obj, path: str) -> complex:
    _require_keys(obj, _ENTRY_KEYS, path)
    re, im = obj["re"], obj["im"]
    for name, v in (("re", re), ("im", im)):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise MatrixFileError("entry parts must be numbers", f"{path}.{name}")
        try:
            finite = math.isfinite(v)
        except OverflowError:   # an integer past the float range
            finite = False
        if not finite:
            raise MatrixFileError("entry parts must be finite", f"{path}.{name}")
    return complex(re, im)


def _parse_block(obj, m: int, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != m * m:
        raise MatrixFileError(f"expected a list of {m * m} entries", path)
    flat = [_parse_entry(e, f"{path}[{k}]") for k, e in enumerate(obj)]
    return np.asarray(flat, dtype=np.complex128).reshape(m, m)


def _block_list_array(obj: list, count: int, m: int) -> np.ndarray | None:
    """The blocks of ``obj``, checked in one pass over all its entries, or
    None when any of them needs the per-entry checks to name what is wrong."""
    size = m * m
    if not all(type(b) is list and len(b) == size for b in obj):
        return None
    entries = [e for b in obj for e in b]
    if not all(type(e) is dict and e.keys() == _ENTRY_KEYS for e in entries):
        return None
    re = [e["re"] for e in entries]
    im = [e["im"] for e in entries]
    if not {*map(type, re), *map(type, im)} <= {float, int}:
        return None
    # .real/.imag, not re + 1j*im, which turns -0.0 into 0.0.
    out = np.empty(count * size, dtype=np.complex128)
    try:
        out.real = re
        out.imag = im
    except OverflowError:   # an integer past the float range
        return None
    return out.reshape(count, m, m) if np.isfinite(out).all() else None


def _parse_block_list(obj, count: int, m: int, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != count:
        raise MatrixFileError(f"expected a list of {count} blocks", path)
    blocks = _block_list_array(obj, count, m)
    if blocks is not None:
        return blocks
    return np.asarray([_parse_block(b, m, f"{path}[{k}]") for k, b in enumerate(obj)])


def read_matrix_file(path):
    """Read a matrix file; returns a BlockTridiagonalMatrix or
    GeneralBlockMatrix depending on the stored kind."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON in {path}: {exc}")
    _require_keys(doc, {"schema_version", "kind", "n", "m", "blocks"}, "$")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise MatrixFileError(
            f"unsupported schema_version {doc['schema_version']!r}", "$.schema_version")
    for name in ("n", "m"):
        v = doc[name]
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise MatrixFileError("must be a positive integer", f"$.{name}")
    n, m = doc["n"], doc["m"]
    kind = doc["kind"]
    blocks = doc["blocks"]
    if kind == KIND_TRIDIAG:
        _require_keys(blocks, {"A", "B", "C"}, "$.blocks")
        try:
            return BlockTridiagonalMatrix(
                diag=_parse_block_list(blocks["A"], n, m, "$.blocks.A"),
                sup=_parse_block_list(blocks["B"], n - 1, m, "$.blocks.B"),
                sub=_parse_block_list(blocks["C"], n - 1, m, "$.blocks.C"))
        except MatrixFileError:
            raise
        except ValueError as exc:
            raise MatrixFileError(str(exc), "$.blocks")
    if kind == KIND_GENERAL:
        _require_keys(blocks, {"grid"}, "$.blocks")
        grid = blocks["grid"]
        if not isinstance(grid, list) or len(grid) != n:
            raise MatrixFileError(f"expected {n} block rows", "$.blocks.grid")
        rows = [_parse_block_list(r, n, m, f"$.blocks.grid[{i}]")
                for i, r in enumerate(grid)]
        return GeneralBlockMatrix(blocks=np.asarray(rows))
    raise MatrixFileError(
        f"unknown kind {kind!r}; expected {KIND_TRIDIAG!r} or {KIND_GENERAL!r}", "$.kind")
