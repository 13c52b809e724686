"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from gatecap.canonical import canonical_unitary, cartan_decompose
from gatecap.cli import main
from gatecap.linalg import haar_random_unitary, kron
from gatecap.serialization import matrix_to_json, save_matrix

PI_4 = np.pi / 4


@pytest.fixture
def write_matrix(tmp_path):
    def _write(u, name="m.json"):
        path = str(tmp_path / name)
        save_matrix(path, u)
        return path
    return _write


def _cnot():
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = [[0, 1], [1, 0]]
    return m


def test_analyze_identity(write_matrix, capsys):
    assert main(["analyze", write_matrix(np.eye(4, dtype=complex)), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(report["d"])) <= 1e-10
    assert report["capacities"]["c_max_prod"] == 0.0
    assert report["d_min"]["closed"] == 1.0
    assert report["theorem"]["quadratic"]["residual"] <= 1e-12


def test_analyze_cnot(write_matrix, capsys):
    assert main(["analyze", write_matrix(_cnot()), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["d"][0] - PI_4) <= 1e-9
    assert report["capacities"]["perfect_entangler"] is True


def test_analyze_pi8(write_matrix, capsys):
    u = canonical_unitary([np.pi / 8, 0, 0])
    assert main(["analyze", write_matrix(u), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["capacities"]["c_max_prod"] - 0.70711) <= 1e-5
    assert abs(report["d_min"]["closed"] - 0.70711) <= 1e-5
    assert report["residual"] <= 1e-12


def test_analyze_deterministic_output(write_matrix, capsys):
    path = write_matrix(haar_random_unitary(4, np.random.default_rng(5)))
    assert main(["analyze", path, "--json", "--seed", "3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["analyze", path, "--json", "--seed", "3"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first) == json.dumps(second)


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["analyze", str(path)]) == 2
    assert "malformed-input" in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/u.json"]) == 2


def test_analyze_non_unitary(write_matrix, capsys):
    assert main(["analyze", write_matrix(np.ones((4, 4), dtype=complex))]) == 3
    assert "not-unitary" in capsys.readouterr().err


def test_decompose_local_invariance(write_matrix, capsys):
    rng = np.random.default_rng(7)
    d = [np.pi / 8, np.pi / 16, 0]
    dressed = (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
               @ canonical_unitary(d)
               @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))
    assert main(["decompose", write_matrix(dressed), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(np.array(report["d"]) - d)) <= 1e-9
    assert report["residual"] <= 1e-9


def test_capacities_triple(capsys):
    assert main(["capacities", "--d", "0.3927,0,0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["capacities"]["c_max_prod"] - 0.70711) <= 1e-4
    assert report["relation2"]["relation_residual"] <= 1e-3


def test_capacities_rejects_triple_outside_region(capsys):
    # ax = 1.2 > pi/4: the closed forms assume the standard region.
    assert main(["capacities", "--d", "1.2,0,0"]) == 2
    assert "malformed-input" in capsys.readouterr().err
    assert main(["capacities", "--d", "0.3927,0,0"]) == 0


def test_capacities_requires_one_input(capsys):
    assert main(["capacities"]) == 2
    assert main(["capacities", "--d", "1,2"]) == 2


def test_verify_small_batch(capsys):
    assert main(["verify", "--trials", "25", "--seed", "7",
                 "--routes", "closed,geometric"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 2


def test_verify_unknown_route(capsys):
    assert main(["verify", "--trials", "1", "--routes", "sideways"]) == 2


def test_verify_csv_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "--trials", "3", "--routes", "closed",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,route,residual"
    assert len(lines) == 4


def test_verify_decomposes_each_trial_once(tmp_path, monkeypatch, capsys):
    import gatecap.cli as cli
    from gatecap.distinguishability import verify_theorem

    calls = []

    def counting(u):
        calls.append(u)
        return cartan_decompose(u)

    monkeypatch.setattr(cli, "cartan_decompose", counting)
    out = tmp_path / "rows.csv"
    assert main(["verify", "--trials", "3", "--seed", "7", "--routes", "closed,geometric",
                 "--out", str(out)]) == 0
    assert len(calls) == 3
    rng = np.random.default_rng(7)
    want = ["trial,route,residual"]
    for trial in range(3):
        d = cartan_decompose(haar_random_unitary(4, rng)).d
        for route in ("closed", "geometric"):
            want.append(f"{trial},{route},{verify_theorem(d, route=route).residual:.17g}")
    assert out.read_text().strip().splitlines() == want


def test_random_weyl(capsys):
    assert main(["random", "--weyl", "--count", "3", "--seed", "11"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    for row in rows:
        ax, ay, az = json.loads(row)["d"]
        assert abs(az) <= ay <= ax <= PI_4


def test_random_matrix_is_unitary(capsys):
    from gatecap.serialization import matrix_from_json

    assert main(["random", "--seed", "13"]) == 0
    u = matrix_from_json(json.loads(capsys.readouterr().out))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_random_deterministic(capsys):
    assert main(["random", "--seed", "17"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--seed", "17"]) == 0
    assert capsys.readouterr().out == first
