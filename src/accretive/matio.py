"""Versioned JSON files for matrices, vectors, and reports.

Complex entries are stored as [re, im] pairs in row-major order.  json
serializes doubles with shortest-round-trip repr, so every written file
re-parses to bitwise-identical values.  All writes land through a temp
file plus os.replace; readers never observe a partial file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import ParseError

FORMAT_VERSION = 1


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def matrix_payload(M):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParseError(f"matrix payload needs a square array, got shape {M.shape}")
    return {
        "format": FORMAT_VERSION,
        "kind": "matrix",
        "dim": int(M.shape[0]),
        "entries": _pairs(M.reshape(-1)),
    }


def vector_payload(v):
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {
        "format": FORMAT_VERSION,
        "kind": "vector",
        "dim": int(v.shape[0]),
        "entries": _pairs(v),
    }


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc


def _check_header(obj, path, kind):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if obj.get("format") != FORMAT_VERSION:
        raise ParseError(
            f"{path}: unsupported format {obj.get('format')!r}, expected {FORMAT_VERSION}"
        )
    if obj.get("kind") != kind:
        raise ParseError(f"{path}: kind is {obj.get('kind')!r}, expected {kind!r}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ParseError(f"{path}: dim must be a nonnegative integer, got {dim!r}")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise ParseError(f"{path}: entries must be a list of [re, im] pairs")
    return dim, entries


def _parse_entries(entries, count, path):
    if len(entries) != count:
        raise ParseError(f"{path}: expected {count} entries, found {len(entries)}")
    out = np.empty(count, dtype=complex)
    for k, pair in enumerate(entries):
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        )
        if not ok:
            raise ParseError(f"{path}: entry {k} must be a [re, im] number pair, got {pair!r}")
        try:
            z = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise ParseError(f"{path}: entry {k} is too large for a float: {pair!r}") from exc
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ParseError(f"{path}: entry {k} is not finite: {pair!r}")
        out[k] = z
    return out


def read_matrix(path):
    obj = _load_json(path)
    dim, entries = _check_header(obj, path, "matrix")
    return _parse_entries(entries, dim * dim, path).reshape(dim, dim)


def read_vector(path):
    obj = _load_json(path)
    dim, entries = _check_header(obj, path, "vector")
    return _parse_entries(entries, dim, path)


def _atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _finite_or_null(obj):
    """obj with every non-finite float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def write_json(path, obj):
    """Deterministic strict JSON write: sorted keys, two-space indent, newline
    end; a non-finite float (NaN or an infinity, which JSON has no word for)
    is written as null."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write_text(path, text + "\n")


def write_matrix(path, M):
    write_json(path, matrix_payload(M))


def write_vector(path, v):
    write_json(path, vector_payload(v))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")
