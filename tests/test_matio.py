"""File format: exact round-trips, header validation, atomic writes."""

import json
import os

import numpy as np
import pytest

from accretive.errors import ParseError
from accretive.matio import (
    matrix_payload,
    read_matrix,
    read_vector,
    write_csv,
    write_json,
    write_matrix,
    write_vector,
)
from accretive.sampling import rng_for

SEED = 55107


def test_matrix_payload_layout():
    payload = matrix_payload(np.array([[1.0, 2.0], [3.0, 4.0 + 5.0j]]))
    assert payload["format"] == 1
    assert payload["kind"] == "matrix"
    assert payload["dim"] == 2
    assert payload["entries"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 5.0]]


def test_matrix_round_trip_exact(tmp_path):
    rng = rng_for(SEED, "roundtrip")
    path = tmp_path / "m.json"
    for dim in (1, 2, 5, 9):
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        M[0, 0] = 0.1 + (1 / 3) * 1j  # repr round-trip must be bitwise exact
        write_matrix(path, M)
        back = read_matrix(path)
        assert np.array_equal(back, M)


def test_vector_round_trip_exact(tmp_path):
    rng = rng_for(SEED, "vector")
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    path = tmp_path / "v.json"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_rewrite_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "m.json"
    write_matrix(path, np.eye(2))
    write_matrix(path, 2 * np.eye(2))
    assert np.array_equal(read_matrix(path), 2 * np.eye(2))
    leftovers = [name for name in os.listdir(tmp_path) if name != "m.json"]
    assert leftovers == []


def test_non_square_rejected():
    with pytest.raises(ParseError):
        matrix_payload(np.zeros((2, 3)))


def test_parse_error_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": 1,\n  "kind": }')
    with pytest.raises(ParseError, match=r"broken\.json:2:\d+"):
        read_matrix(path)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"format": 2, "kind": "matrix", "dim": 1, "entries": [[1.0, 0.0]]}, "format"),
        ({"format": 1, "kind": "vector", "dim": 1, "entries": [[1.0, 0.0]]}, "kind"),
        ({"format": 1, "kind": "matrix", "dim": -1, "entries": []}, "dim"),
        ({"format": 1, "kind": "matrix", "dim": "2", "entries": []}, "dim"),
        ({"format": 1, "kind": "matrix", "dim": 2, "entries": [[1.0, 0.0]]}, "entries"),
        ({"format": 1, "kind": "matrix", "dim": 1, "entries": [[1.0]]}, "entry 0"),
        ({"format": 1, "kind": "matrix", "dim": 1, "entries": [[1.0, True]]}, "entry 0"),
        ({"format": 1, "kind": "matrix", "dim": 1, "entries": ["x"]}, "entry 0"),
        ({"format": 1, "kind": "matrix", "dim": 1, "entries": [[0, 10**400]]}, "entry 0"),
    ],
)
def test_header_and_entry_validation(tmp_path, payload, fragment):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=fragment):
        read_matrix(path)


def test_non_finite_entry_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"format": 1, "kind": "matrix", "dim": 1, "entries": [[Infinity, 0.0]]}')
    with pytest.raises(ParseError, match="entry 0"):
        read_matrix(path)


@pytest.mark.parametrize("content", [
    # Past 4300 digits Python refuses to parse an integer (or it overflows a float).
    b'{"format": 1, "kind": "matrix", "dim": 1, "entries": [[0, ' + b"9" * 5000 + b"]]}",
    b'{"format": 1, "kind": "matrix", "dim": 0, "entries": [], "note": "\xe9"}',  # not UTF-8
], ids=["huge-integer", "not-utf8"])
def test_unloadable_file_rejected(tmp_path, content):
    path = tmp_path / "unloadable.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="unloadable.json"):
        read_matrix(path)


def test_missing_file():
    with pytest.raises(ParseError, match="no-such-file"):
        read_matrix("no-such-file.json")


def test_write_json_sorted_deterministic(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    # JSON has no NaN or infinity; a strict parser must read every report.
    path = tmp_path / "r.json"
    write_json(path, {"a": np.inf, "b": [1.5, (float("nan"), -np.inf)], "c": {"d": np.float64(2.0)}})

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "a": None, "b": [1.5, [None, None]], "c": {"d": 2.0}
    }


def test_write_csv(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("t", "re"), [(0.0, 1.0), (0.5, 2.0)])
    assert path.read_text() == "t,re\n0.0,1.0\n0.5,2.0\n"
