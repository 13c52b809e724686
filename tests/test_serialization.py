"""Tests for the JSON matrix format."""

import json

import numpy as np
import pytest

from gatecap.linalg import haar_random_unitary
from gatecap.serialization import (
    MalformedInputError,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(113)
    u = haar_random_unitary(4, rng)
    assert np.array_equal(matrix_from_json(matrix_to_json(u)), u)


def test_matrix_schema_shape():
    doc = matrix_to_json(np.eye(2, dtype=complex))
    assert doc == {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [1.0, 0.0]]]}


def test_matrix_rejects_missing_keys():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 2})


def test_matrix_rejects_ragged_rows():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]})


def test_matrix_rejects_bad_pairs():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 1, "entries": [[["a", 0]]]})


def test_matrix_rejects_booleans():
    # JSON true and false are not numbers, though Python's bool is an int.
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": True, "entries": [[[1.0, 0.0]]]})
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 1, "entries": [[[True, 0.0]]]})
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 1, "entries": [[[1.0, False]]]})


def test_matrix_rejects_integers_beyond_the_float_range():
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 1, "entries": [[[10 ** 400, 0]]]})
    with pytest.raises(MalformedInputError):
        matrix_from_json({"dim": 1, "entries": [[[0, -10 ** 400]]]})


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "u.json")
    u = haar_random_unitary(4, np.random.default_rng(127))
    with open(path, "w") as fh:
        json.dump(matrix_to_json(u), fh)
    assert np.array_equal(load_matrix(path), u)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedInputError):
        load_matrix(str(path))
