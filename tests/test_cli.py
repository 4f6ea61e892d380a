import json

import numpy as np
import pytest
import scipy.linalg

from mgsim import circuits, matchgate, sampling
from mgsim.cli import main

H = 0.7071067811865476

CIRCUIT = f"""circuit n=3
state + 0 1
gate gvw 1 V=[0,1;1,0] W=[1,0;0,-1]
gate diag 1 3 [1,1i,1i,-1]
gate u1 U=[{H},{H};{H},-{H}]
measure 2
"""


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.mg"
    path.write_text(CIRCUIT)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("engine", ["quadratic", "lie", "dense"])
def test_run_engines(capsys, circuit_file, engine):
    code, data = run_json(capsys, ["run", circuit_file, "--engine", engine])
    assert code == 0
    assert data["schema"] == 1
    assert data["engine"] == engine
    assert data["unitary"] is True
    assert abs(data["p0"] + data["p1"] - 1.0) < 1e-9
    assert isinstance(data["expectation"], list) and len(data["expectation"]) == 2


def test_compare(capsys, circuit_file):
    code, data = run_json(capsys, ["compare", circuit_file])
    assert code == 0
    assert set(data["engines"]) == {"quadratic", "lie", "dense"}
    assert data["max_deviation"] < 1e-9
    assert data["agree"] is True


def test_verify_matchgate(capsys, tmp_path):
    path = tmp_path / "B.json"
    path.write_text(json.dumps(np.eye(4).tolist()))
    code, data = run_json(capsys, ["verify-matchgate", str(path)])
    assert code == 0
    assert data["is_matchgate"] is True
    assert data["eigenvector_predicate"] is True
    assert len(data["identities"]) == 10
    assert all(v == [0.0, 0.0] for v in data["identities"])

    swap = np.eye(4)[[0, 2, 1, 3]]
    path.write_text(json.dumps(swap.tolist()))
    code, data = run_json(capsys, ["verify-matchgate", str(path)])
    assert code == 0 and data["is_matchgate"] is False
    # the relabeled convention makes SWAP's partner matchgate-valid entries move
    code, data = run_json(capsys, ["verify-matchgate", str(path), "--physical"])
    assert code == 0 and data["is_matchgate"] is False


def test_verify_matchgate_complex_entries(capsys, tmp_path):
    path = tmp_path / "B.json"
    B = np.diag([1, 1j, 1j, -1]).astype(complex)
    payload = [[[v.real, v.imag] for v in row] for row in B]
    path.write_text(json.dumps({"matrix": payload}))
    code, data = run_json(capsys, ["verify-matchgate", str(path)])
    assert code == 0 and data["is_matchgate"] is True


def test_classify(capsys, tmp_path):
    path = tmp_path / "B.json"
    path.write_text(json.dumps(np.eye(4).tolist()))
    code, data = run_json(capsys, ["classify", str(path)])
    assert code == 0
    assert data["classes"] == ["mg12", "gvw", "diag"]


def test_bench(capsys):
    code, data = run_json(capsys, ["bench", "--n", "8,16", "--gates", "20", "--seed", "7"])
    assert code == 0
    assert [r["n"] for r in data["runs"]] == [8, 16]
    assert all(r["seconds"] > 0 for r in data["runs"])
    assert data["fitted_exponent"] is not None


def test_domain_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.mg"
    path.write_text("circuit n=2\nstate 0 0\ngate diag 1 2 [1,1,1,-1]\nmeasure 1\n")
    assert main(["run", str(path)]) == 1
    assert "B22*B33" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/path.mg"]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_adjoint_mode_guard(capsys, tmp_path):
    path = tmp_path / "nonunitary.mg"
    path.write_text("circuit n=1\nstate 0\ngate exp b:1=0.5\nmeasure 1\n")
    assert main(["run", str(path), "--engine", "quadratic",
                 "--heisenberg-mode", "adjoint"]) == 1
    assert "requires --engine dense" in capsys.readouterr().err
    assert main(["run", str(path), "--engine", "dense",
                 "--heisenberg-mode", "adjoint"]) == 0


def assert_one_error(capsys, code, expected=1):
    out, err = capsys.readouterr()
    assert code == expected
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


ENGINE_ARGV = [["run", "--engine", "quadratic"], ["run", "--engine", "lie"],
               ["run", "--engine", "dense"], ["compare"]]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow warnings would raise
@pytest.mark.parametrize("argv", ENGINE_ARGV)
def test_non_finite_value_is_a_domain_error(capsys, tmp_path, argv):
    path = tmp_path / "overflow.mg"
    path.write_text("circuit n=1\nstate 0\ngate exp a:1,2=1e308 b:1=1e308\nmeasure 1\n")
    assert_one_error(capsys, main([argv[0], str(path), *argv[1:]]))


@pytest.mark.parametrize("argv", [
    ["run", "{circuit}", "--c0-mode", "parity"],
    ["run", "{circuit}", "--seed", "1"],
    ["compare", "{circuit}", "--seed", "1"],
    ["classify", "{matrix}", "--seed", "1"],
    ["classify", "{matrix}", "--tol", "1e-6"],
    ["verify-matchgate", "{matrix}", "--heisenberg-mode", "adjoint"],
    ["bench", "--engine", "quadratic"],
])
def test_removed_flags_are_usage_errors(circuit_file, tmp_path, argv):
    matrix = tmp_path / "B.json"
    matrix.write_text(json.dumps(np.eye(4).tolist()))
    argv = [a.format(circuit=circuit_file, matrix=matrix) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("sizes", ["abc", "5,", "0", "8,-1"])
def test_bad_bench_sizes_are_usage_errors(capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", sizes])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: mgsim bench")


@pytest.mark.parametrize("command, text", [
    ("run", "circuit n=2\nstate (1,x)(0,0) 0\nmeasure 1\n"),
    ("run", "circuit n=2\nstate (inf,0)(1,0) 0\nmeasure 1\n"),
    ("run", "circuit n=2\nstate (nan,0)(1,0) 0\nmeasure 1\n"),
    ("run", "circuit n=2\nstate (1,0,0)(0,0) 0\nmeasure 1\n"),
    ("classify", "[[1, 0], [0, 1]"),
    ("classify", '[["a", 0, 0, 0]]'),
    ("classify", "[[1, 0, 0, 0], [0, 1]]"),
    ("classify", "5"),
    ("classify", '{"other": 1}'),
    ("classify", "[[NaN, 0], [0, 1]]"),
    ("verify-matchgate", "[[Infinity, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"),
    ("verify-matchgate", "[[[1, 0, 0], 0], [0, 1]]"),
])
def test_bad_input_is_a_domain_error(capsys, tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    assert_one_error(capsys, main([command, str(path)]))


def test_binary_file_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "binary.mg"
    path.write_bytes(b"\xff\xfe\x00circuit")
    assert_one_error(capsys, main(["run", str(path)]))


@pytest.mark.parametrize("gate", [
    "gvw 1 V=[1,0;0,0] W=[1,0;0,0]",
    "mg12 B=[1,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0]",
    "u1 U=[1,1;1,1]",
])
@pytest.mark.parametrize("argv", ENGINE_ARGV)
def test_singular_gate_is_a_domain_error(capsys, tmp_path, gate, argv):
    path = tmp_path / "singular.mg"
    path.write_text(f"circuit n=2\nstate 0 +\ngate {gate}\nmeasure 1\n")
    assert "not invertible" in assert_one_error(capsys, main([argv[0], str(path), *argv[1:]]))


# det V = det W = 1, but W is a Jordan block with eigenvalue -1: G(V, W) is only
# a limit of matchgate exponentials, and no logarithm of it lies in the span
CLOSURE_ONLY = """circuit n=2
state (0.6,0)(0,0.8) +
gate gvw 1 V=[1,1;0,1] W=[-1,1;0,-1]
measure 1
"""


def test_closure_only_gate_runs_on_the_quadratic_engine(capsys, tmp_path):
    path = tmp_path / "closure.mg"
    path.write_text(CLOSURE_ONLY)
    code, data = run_json(capsys, ["run", str(path)])
    assert code == 0
    B = matchgate.g_vw([[1, 1], [0, 1]], [[-1, 1], [0, -1]])
    psi = np.kron([0.6, 0.8j], [1, 1]) / np.sqrt(2)
    Z1 = np.diag([1, 1, -1, -1])
    ref = np.vdot(psi, np.linalg.inv(B) @ Z1 @ B @ psi)
    assert abs(ref - (-0.28)) < 1e-12
    assert abs(complex(*data["expectation"]) - ref) < 1e-12
    # the Lie engine and the oracle need a logarithm, so they refuse the gate
    for argv in (["run", str(path), "--engine", "lie"], ["compare", str(path)]):
        assert_one_error(capsys, main(argv))


def test_quadratic_run_takes_no_logarithm(capsys, tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    gates = tuple(sampling.random_gate(cls, 4, rng, unitary=False)
                  for cls in sampling.ALL_CLASSES * 2)
    circ = circuits.Circuit(4, ((1.0, 0j),) * 4, gates, 3, False)
    path = tmp_path / "all_classes.mg"
    path.write_text(circuits.render(circ))

    def forbidden(*args, **kwargs):
        raise AssertionError("the quadratic run path must not compile or take a logarithm")

    monkeypatch.setattr(circuits, "compile", forbidden)
    monkeypatch.setattr(matchgate, "log_to_L", forbidden)
    monkeypatch.setattr(scipy.linalg, "logm", forbidden)
    code, data = run_json(capsys, ["run", str(path)])
    assert code == 0 and data["gates"] == 10
