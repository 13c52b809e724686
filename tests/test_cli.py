"""Tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy import kron

import gatecap
from gatecap.canonical import canonical_unitary, cartan_decompose
from gatecap.cli import main
from gatecap.distinguishability import d_min_geometric, hull_min_distance, verify_theorem
from gatecap.entanglement import capacities_closed_form
from gatecap.linalg import SIGMA_YY, eig_unitary, haar_random_unitary
from gatecap.serialization import matrix_from_json, matrix_to_json

PI_4 = np.pi / 4


@pytest.fixture
def write_matrix(tmp_path):
    def _write(u, name="m.json"):
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            json.dump(matrix_to_json(u), fh)
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


def test_analyze_computes_the_spectrum_once(write_matrix, monkeypatch, capsys):
    import gatecap.cli as cli

    calls = []

    def counting(u):
        calls.append(u)
        return d_min_geometric(u)

    monkeypatch.setattr(cli, "d_min_geometric", counting)
    path = write_matrix(haar_random_unitary(4, np.random.default_rng(5)))
    assert main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    geometric = report["d_min"]["geometric"]
    for key in ("quadratic", "quartic"):
        assert report["theorem"][key]["d_min_sq"] == geometric * geometric


def test_analyze_imports_no_scipy(write_matrix):
    # gatecap needs only numpy; importing scipy.optimize alone would cost
    # several times the rest of an analyze call.
    path = write_matrix(haar_random_unitary(4, np.random.default_rng(5)))
    script = ("import sys, gatecap, gatecap.cli\n"
              "assert gatecap.cli.main(['analyze', sys.argv[1], '--json']) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
              "file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gatecap.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script, path], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stderr.strip() == "[]"
    assert json.loads(proc.stdout)["input_sha256"]


def test_analyze_malformed_file(tmp_path, capsys):
    # The nested array exceeds the JSON decoder's recursion limit.
    path = tmp_path / "bad.json"
    for text in ("{}", "[" * 100000 + "]" * 100000):
        path.write_text(text)
        for command in ("analyze", "decompose", "capacities"):
            assert main([command, str(path)]) == 2, (command, text[:2])
            assert "malformed-input" in capsys.readouterr().err


def test_analyze_integer_beyond_the_float_range(tmp_path, capsys):
    # JSON integers are exact, so one can be too large to become a float.
    doc = matrix_to_json(np.eye(4))
    doc["entries"][0][0][0] = 10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "decompose", "capacities"):
        assert main([command, str(path)]) == 2, command
        assert "malformed-input" in capsys.readouterr().err


def test_analyze_boolean_dim(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"dim": true, "entries": [[[1.0, 0.0]]]}')
    assert main(["analyze", str(path)]) == 2
    assert "malformed-input" in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/u.json"]) == 2


def test_analyze_directory_input(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    assert "malformed-input" in capsys.readouterr().err


def test_verify_out_directory(tmp_path, capsys):
    assert main(["verify", "--trials", "2", "--routes", "closed", "--out", str(tmp_path)]) == 2
    assert "malformed-input" in capsys.readouterr().err


def test_analyze_non_unitary(write_matrix, capsys):
    assert main(["analyze", write_matrix(np.ones((4, 4), dtype=complex))]) == 3
    assert "not-unitary" in capsys.readouterr().err


def test_analyze_rejects_a_matrix_whose_defect_overflows(write_matrix, capsys):
    u = np.eye(4, dtype=complex)
    u[0, 0] = 1e308 + 1e308j
    assert main(["analyze", write_matrix(u)]) == 3
    assert "not-unitary" in capsys.readouterr().err


def test_analyze_decomposes_a_gate_the_unitarity_gate_accepts(write_matrix, capsys):
    # Haar gates moved by at most 5e-12 and 5e-11 per entry: unitarity
    # defects 1.0e-11 and 8.8e-11, which the 1e-10 gate accepts, so the whole
    # report must succeed too.  The second gate's M^T M has a defect of
    # 1.2e-10, above the gate, which is why M^T M is not checked again.
    rng = np.random.default_rng(223)
    for scale in (0.5e-11, 0.5e-10):
        u = haar_random_unitary(4, rng)
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert main(["analyze", write_matrix(u + e * scale / np.max(np.abs(e))), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-10


def test_wrong_basis_fails_the_reconstruction_gate(write_matrix, monkeypatch, capsys):
    # A wrong orthogonal basis from _magic_eigenbasis is caught by the
    # decomposition's one output gate.
    rng = np.random.default_rng(3)
    wrong, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    u = haar_random_unitary(4, rng)
    monkeypatch.setattr(gatecap.canonical, "_magic_eigenbasis", lambda m2: wrong)
    with pytest.raises(gatecap.DecompositionError, match="residual"):
        cartan_decompose(u)
    assert main(["analyze", write_matrix(u)]) == 4
    assert "decomposition-failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "m.json", "--tol", "1"],
    ["decompose", "m.json", "--tol", "1"],
    ["decompose", "m.json", "--seed", "1"],
    ["capacities", "--d", "0,0,0", "--tol", "1"],
    ["random", "--tol", "1"],
    ["random", "--json"],
    ["random", "--degrees"],
    ["verify", "--trials", "1", "--json"],
    ["verify", "--trials", "1", "--degrees"],
])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("d", [
    [0, 0, 0], [PI_4, 0, 0], [PI_4, np.pi / 8, 0], [np.pi / 8, 0, 0],
    [PI_4, PI_4, PI_4], [np.pi / 8, np.pi / 8, np.pi / 8], None,
])
def test_decompose_json_rebuilds_the_input(d, write_matrix, capsys):
    # The printed factors and phase are one representative among several;
    # whichever it is, the fields must rebuild the input.
    rng = np.random.default_rng(11)
    for _ in range(5):
        if d is None:
            u = haar_random_unitary(4, rng)
        else:
            u = (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
                 @ canonical_unitary(d)
                 @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))
        assert main(["decompose", write_matrix(u), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        xa, xb, ya, yb = (matrix_from_json(report[k]) for k in ("XA", "XB", "YA", "YB"))
        rebuilt = (np.exp(1j * report["global_phase"]) * kron(xa, xb)
                   @ canonical_unitary(report["d"]) @ kron(ya, yb))
        assert np.max(np.abs(rebuilt - u)) <= 1e-9


def test_negative_seed_is_a_usage_error(write_matrix, capsys):
    path = write_matrix(haar_random_unitary(4, np.random.default_rng(3)))
    for argv in (["analyze", path, "--seed", "-1"], ["analyze", path, "--numeric", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def test_capacities_rejects_a_negative_seed_before_searching(monkeypatch, capsys):
    import gatecap.cli as cli

    def fail(d):
        raise AssertionError("relation 1 ran before the seed was checked")

    monkeypatch.setattr(cli, "verify_relation1", fail)
    with pytest.raises(SystemExit) as exc:
        main(["capacities", "--d", "0.3927,0,0", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


def test_verify_worst_trial_replays(tmp_path, capsys):
    assert main(["verify", "--trials", "12", "--seed", "7",
                 "--routes", "closed,geometric"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        words = line.split()
        trial, seed, sha = (words[words.index(key) + 1] for key in ("trial", "seed", "sha256"))
        assert seed == "7"
        trial = int(trial)
        rows = tmp_path / "random.jsonl"
        assert main(["random", "--seed", "7", "--count", str(trial + 1),
                     "--out", str(rows)]) == 0
        matrix = tmp_path / "worst.json"
        matrix.write_text(rows.read_text().splitlines()[-1])
        assert main(["analyze", str(matrix), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["input_sha256"] == sha


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_rejects_bad_tolerance(tol, capsys):
    assert main(["verify", "--trials", "2", "--tol", tol]) == 2
    assert "malformed-input" in capsys.readouterr().err


def test_verify_unknown_route(capsys):
    assert main(["verify", "--trials", "1", "--routes", "sideways"]) == 2


@pytest.mark.parametrize("routes", ["", ",", " , ", "closed,closed", "closed, geometric,closed"])
def test_verify_rejects_empty_or_repeated_routes(routes, tmp_path, capsys):
    # An empty list would check nothing and pass; a repeated route would
    # print twice and double its rows in the CSV.
    out = tmp_path / "rows.csv"
    assert main(["verify", "--trials", "1", "--routes", routes, "--out", str(out)]) == 2
    assert "malformed-input" in capsys.readouterr().err
    assert not out.exists()


def test_verify_csv_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["verify", "--trials", "3", "--routes", "closed",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,route,residual"
    assert len(lines) == 4


def _makhlin(u):
    sg = SIGMA_YY @ u.T @ SIGMA_YY @ u
    tr = np.trace(sg)
    det = np.linalg.det(u)
    return np.array([tr * tr / (16 * det), (tr * tr - np.trace(sg @ sg)) / (4 * det)])


def _input_hull_residual(u, d):
    """The larger of |c_max_prod(d)^2 + D_min^2 - 1|, D_min from the spectrum of
    the input's S U^T S U, and the largest gap between the Makhlin invariants of
    the input and those of U_d."""
    c = capacities_closed_form(d).c_max_prod
    dm = hull_min_distance(eig_unitary(SIGMA_YY @ u.T @ SIGMA_YY @ u))
    drift = np.max(np.abs(_makhlin(u) - _makhlin(canonical_unitary(d))))
    return max(abs(c * c + dm * dm - 1.0), drift)


def test_verify_decomposes_each_trial_once(tmp_path, monkeypatch, capsys):
    import gatecap.cli as cli

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
        u = haar_random_unitary(4, rng)
        d = cartan_decompose(u).d
        want.append(f"{trial},closed,{verify_theorem(d).residual:.17g}")
        want.append(f"{trial},geometric,{_input_hull_residual(u, d):.17g}")
    assert out.read_text().strip().splitlines() == want


def _dressed_non_perfect_entangler():
    """A dressed U_d with d = (0.3, 0.1, 0.05), where both terms of the
    identity move with d."""
    rng = np.random.default_rng(19)
    return (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            @ canonical_unitary([0.3, 0.1, 0.05])
            @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))


def _shifted_by_0_05(v):
    form = cartan_decompose(v)
    return dataclasses.replace(form, d=form.d + [0.05, 0.0, 0.0])


def test_verify_geometric_route_catches_wrong_triple(monkeypatch, capsys):
    import gatecap.cli as cli

    u = _dressed_non_perfect_entangler()
    monkeypatch.setattr(cli, "haar_random_unitary", lambda n, rng: u)
    monkeypatch.setattr(cli, "cartan_decompose", _shifted_by_0_05)
    assert main(["verify", "--trials", "1", "--routes", "closed"]) == 0
    assert main(["verify", "--trials", "1", "--routes", "geometric"]) == 1
    # The identity moves by 9.9e-2 and the local invariants by 0.19; the
    # route reports the larger.
    line = capsys.readouterr().out.splitlines()[-1]
    assert f"max residual {_input_hull_residual(u, [0.35, 0.1, 0.05]):.6e}" in line
    assert "max residual 1.9" in line


def test_analyze_theorem_catches_wrong_triple(write_matrix, monkeypatch, capsys):
    # The theorem residuals read D_min from the input, so a triple moved off
    # the input's class shows in them.
    import gatecap.cli as cli

    monkeypatch.setattr(cli, "cartan_decompose", _shifted_by_0_05)
    assert main(["analyze", write_matrix(_dressed_non_perfect_entangler()), "--json"]) == 0
    theorem = json.loads(capsys.readouterr().out)["theorem"]
    assert theorem["quadratic"]["residual"] > 1e-3
    assert theorem["quartic"]["residual"] > 1e-3


def test_analyze_numeric_d_min_reads_the_input(write_matrix, monkeypatch, capsys):
    # The probe search runs on S U^T S U, S = sy (x) sy, so it reads D_min
    # from the input, as the geometric route does, not from the reported d.
    import gatecap.cli as cli

    u = _dressed_non_perfect_entangler()
    monkeypatch.setattr(cli, "cartan_decompose", _shifted_by_0_05)
    assert main(["analyze", write_matrix(u), "--json", "--numeric"]) == 0
    d_min = json.loads(capsys.readouterr().out)["d_min"]
    assert abs(d_min["numeric"] - d_min_geometric(u)) <= 1e-12
    assert abs(d_min["numeric"] - 0.6967) <= 1e-4
    assert abs(d_min["numeric"] - d_min["closed"]) > 1e-3
    assert abs(d_min["closed"] - 0.6216) <= 1e-4


def test_verify_geometric_route_catches_wrong_perfect_entangler(monkeypatch, capsys):
    # Both triples are perfect entanglers: c_max_prod stays 1 and D_min 0, so
    # only the local invariants tell them apart.
    import gatecap.cli as cli

    rng = np.random.default_rng(23)
    u = (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
         @ canonical_unitary([0.65, 0.35, 0.25])
         @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))
    assert capacities_closed_form([0.70, 0.35, 0.25]).perfect_entangler

    def shifted(v):
        form = cartan_decompose(v)
        assert np.max(np.abs(form.d - [0.65, 0.35, 0.25])) <= 1e-9
        return dataclasses.replace(form, d=np.array([0.70, 0.35, 0.25]))

    monkeypatch.setattr(cli, "haar_random_unitary", lambda n, rng: u)
    monkeypatch.setattr(cli, "cartan_decompose", shifted)
    assert main(["verify", "--trials", "1", "--routes", "closed"]) == 0
    assert main(["verify", "--trials", "1", "--routes", "geometric"]) == 1
    assert "FAIL" in capsys.readouterr().out.splitlines()[-1]


def test_verify_geometric_route_passes_haar_draws(capsys):
    assert main(["verify", "--trials", "1000", "--routes", "closed,geometric"]) == 0
    assert capsys.readouterr().out.count("pass") == 2


def test_random_weyl(capsys):
    assert main(["random", "--weyl", "--count", "3", "--seed", "11"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    for row in rows:
        ax, ay, az = json.loads(row)["d"]
        assert abs(az) <= ay <= ax <= PI_4


@pytest.mark.parametrize("count", ["0", "-3"])
def test_random_rejects_non_positive_count(count, capsys):
    assert main(["random", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "malformed-input" in captured.err


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
