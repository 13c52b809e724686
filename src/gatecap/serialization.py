"""JSON encoding of matrices.

Complex entries are stored as [re, im] pairs; matrices row-major as
{"dim": n, "entries": [[[re, im], ...], ...]}.
"""

from __future__ import annotations

import json

import numpy as np


class MalformedInputError(ValueError):
    """The JSON document does not follow the matrix schema."""


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "entries": [[_pair(z) for z in row] for row in m],
    }


def _complex_from_pair(item) -> complex:
    # bool is an int subclass, but a JSON true is not a number.
    if (not isinstance(item, (list, tuple)) or len(item) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)):
        raise MalformedInputError(f"expected a [re, im] pair, got {item!r}")
    try:
        return complex(item[0], item[1])
    except OverflowError as exc:  # an integer beyond the float range
        raise MalformedInputError(f"entry out of the float range: {exc}") from exc


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise MalformedInputError('matrix JSON requires "dim" and "entries" keys')
    n = obj["dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise MalformedInputError(f'"dim" must be a positive integer, got {n!r}')
    rows = obj["entries"]
    if not isinstance(rows, list) or len(rows) != n:
        raise MalformedInputError(f'"entries" must hold {n} rows')
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedInputError(f"row {i} must hold {n} entries")
        for j, item in enumerate(row):
            out[i, j] = _complex_from_pair(item)
    return out


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        # Nesting deeper than the decoder's recursion limit raises RecursionError.
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc
    return matrix_from_json(obj)
