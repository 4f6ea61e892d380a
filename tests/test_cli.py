import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgsim import circuits, cli, engine_lie, engine_quadratic, matchgate, oracle, sampling
from mgsim.cli import main
from mgsim.errors import MgsimError

SRC = Path(__file__).resolve().parent.parent / "src"

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


def test_bench(capsys, monkeypatch):
    # each row times parse of the rendered circuit text, then the quadratic engine,
    # after one untimed run of both on the same text
    parsed = []
    parse = circuits.parse
    monkeypatch.setattr(circuits, "parse",
                        lambda text: parsed.append(text) or parse(text))
    code, data = run_json(capsys, ["bench", "--n", "8,16", "--gates", "20", "--seed", "7"])
    assert code == 0
    assert [r["n"] for r in data["runs"]] == [8, 16]
    assert all(0 < r["parse_s"] < r["seconds"] for r in data["runs"])
    assert [text.splitlines()[0] for text in parsed] == ["circuit n=8"] * 2 + ["circuit n=16"] * 2
    assert parsed[0] == parsed[1] and parsed[2] == parsed[3]
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


@pytest.mark.parametrize("gate", ["a:1,3=1e300", "a:1,3=1e300i", "a:1,2=1e300 b:3=1e300"])
@pytest.mark.parametrize("argv", [["run", "--engine", "lie"], ["compare"]])
def test_huge_exp_gate_is_one_error_line(tmp_path, argv, gate):
    # a generator of norm 1e300 would need about 1000 squarings, each doubling the
    # rounding error: expm_stack gives nan for it, which the engine reports as one
    # error line; in a fresh process, with every warning an error and a time limit
    path = tmp_path / "huge.mg"
    path.write_text(f"circuit n=2\nstate + 0\ngate exp {gate}\nmeasure 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "mgsim.cli", argv[0], str(path),
                           *argv[1:]], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), done.stderr


LARGE_DIAG = "circuit n=2\nstate 0 0\ngate diag 1 2 [1e200,1e200,1e200,1e200]\nmeasure 1\n"


@pytest.mark.parametrize("argv", ENGINE_ARGV)
def test_large_diag_entries_are_accepted(capsys, tmp_path, argv):
    # the diag rule B11*B44 = B22*B33 is tested on entries scaled by max |d|,
    # so squaring 1e200 cannot overflow; the gate is 1e200 * I, and <Z_1> = 1
    path = tmp_path / "large_diag.mg"
    path.write_text(LARGE_DIAG)
    code, data = run_json(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 0 and all(res["expectation"] == [1.0, 0.0]
                             for res in data.get("engines", {"": data}).values())


LARGE_GATE = "circuit n=2\nstate (0.6,0)(0,0.8) +\ngate {gate}\nmeasure 1\n"
GVW = "gvw 1 V=[{v},0;0,{v}] W=[{v},0;0,{v}]"
MG12 = "mg12 B=[{v},0,0,0;0,{v},0,0;0,0,{v},0;0,0,0,{v}]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gate, v", [(GVW, "1e160"), (MG12, "1e200")], ids=["gvw", "mg12"])
@pytest.mark.parametrize("argv", ENGINE_ARGV)
def test_large_gate_entries_give_the_identity_gates_value(capsys, tmp_path, argv, gate, v):
    # the determinant and identity checks divide by the largest entry first, so
    # det V = 1e320 or B's identity products cannot overflow; v * I acts as I
    values = {}
    for scale in ("1", v):
        path = tmp_path / "large.mg"
        path.write_text(LARGE_GATE.format(gate=gate.format(v=scale)))
        code, data = run_json(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 0
        values[scale] = [complex(*res["expectation"])
                         for res in data.get("engines", {"": data}).values()]
    assert np.abs(np.subtract(values["1"], values[v])).max() < 1e-12


@pytest.mark.parametrize("argv", ENGINE_ARGV)
def test_tiny_gvw_entries_are_still_singular(capsys, tmp_path, argv):
    path = tmp_path / "tiny.mg"
    path.write_text(LARGE_GATE.format(gate=GVW.format(v="1e-170")))
    err = assert_one_error(capsys, main([argv[0], str(path), *argv[1:]]))
    assert err == "error: line 3: gvw gate rejected: matrix is not invertible (|det| = 0.000e+00)\n"


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_large_matchgate_identities_stay_finite(capsys, tmp_path):
    path = tmp_path / "B.json"
    path.write_text(json.dumps((1e200 * np.eye(4)).tolist()))
    assert main(["verify-matchgate", str(path)]) == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["is_matchgate"] is True and all(v == [0.0, 0.0] for v in data["identities"])
    code, data = run_json(capsys, ["classify", str(path)])
    assert code == 0 and data["classes"] == ["mg12", "gvw", "diag"]
    # SWAP's identities do not vanish: at this scale their values overflow
    path.write_text(json.dumps((1e200 * np.eye(4)[[0, 2, 1, 3]]).tolist()))
    assert "overflow" in assert_one_error(capsys, main(["verify-matchgate", str(path)]))


def test_large_non_matchgate_fails_both_predicates(capsys, tmp_path):
    path = tmp_path / "B.json"
    B = np.eye(4)
    B[0, 1] = 1e-3  # mixes the parity blocks
    path.write_text(json.dumps((1e155 * B).tolist()))
    code, data = run_json(capsys, ["verify-matchgate", str(path)])
    assert code == 0
    assert data["is_matchgate"] is False and data["eigenvector_predicate"] is False


@pytest.mark.parametrize("argv", [
    ["run", "{circuit}", "--c0-mode", "parity"],
    ["run", "{circuit}", "--seed", "1"],
    ["compare", "{circuit}", "--seed", "1"],
    ["classify", "{matrix}", "--seed", "1"],
    ["classify", "{matrix}", "--tol", "1e-6"],
    ["verify-matchgate", "{matrix}", "--heisenberg-mode", "adjoint"],
    ["bench", "--engine", "quadratic"],
    ["compare", "{circuit}", "--heisenberg-mode", "adjoint"],
    ["bench", "--tol", "1e-9"],
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


@pytest.mark.parametrize("gates", ["abc", "0", "-3"])
def test_bad_bench_gate_counts_are_usage_errors(capsys, gates):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "8", "--gates", gates])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: mgsim bench")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
@pytest.mark.parametrize("command", ["run", "compare", "verify-matchgate", "bench"])
def test_bad_tol_is_a_usage_error(capsys, circuit_file, tmp_path, command, tol):
    # bench takes no --tol at all, so any value there is a usage error too
    matrix = tmp_path / "B.json"
    matrix.write_text(json.dumps(np.eye(4).tolist()))
    target = {"run": [circuit_file], "compare": [circuit_file],
              "verify-matchgate": [matrix], "bench": []}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, target), "--tol", tol])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: mgsim {command}")


def test_zero_tol_is_accepted(capsys, circuit_file):
    code, data = run_json(capsys, ["run", str(circuit_file), "--tol", "0"])
    assert code == 0 and np.isfinite(data["expectation"]).all()


def test_verify_matchgate_takes_zero_tol_as_an_exact_test(capsys, tmp_path):
    path = tmp_path / "B.json"
    for B, exact in ((np.diag([1, 1j, 1j, -1]), True), (np.diag([1, 1, 1, 1 + 1e-15]), False)):
        path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in B.astype(complex)]))
        code = main(["verify-matchgate", str(path), "--tol", "0"])
        out = capsys.readouterr().out
        assert code == 0 and _strict_json(out)
        data = json.loads(out)
        assert data["is_matchgate"] is data["eigenvector_predicate"] is exact


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
    ("classify", "[[true, false], [false, true]]"),
    ("verify-matchgate", "[[true, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"),
    ("verify-matchgate", "[[[1, false], 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"),
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
    B = matchgate.g_vw([[1, 1], [0, 1]], [[-1, 1], [0, -1]])
    psi = np.kron([0.6, 0.8j], [1, 1]) / np.sqrt(2)
    Z1 = np.diag([1, 1, -1, -1])
    ref = np.vdot(psi, np.linalg.inv(B) @ Z1 @ B @ psi)
    assert abs(ref - (-0.28)) < 1e-12
    # the quadratic engine and the oracle both apply the gate matrix itself
    for engine in ("quadratic", "dense"):
        code, data = run_json(capsys, ["run", str(path), "--engine", engine])
        assert code == 0
        assert abs(complex(*data["expectation"]) - ref) < 1e-12
    # the Lie engine needs a logarithm, and compare runs it, so both refuse the gate
    for argv in (["run", str(path), "--engine", "lie"], ["compare", str(path)]):
        assert_one_error(capsys, main(argv))


def _run_with_logarithms_forbidden(capsys, tmp_path, monkeypatch, *flags):
    rng = np.random.default_rng(5)
    gates = tuple(sampling.random_gate(cls, 4, rng, unitary=False)
                  for cls in circuits.GATE_CLASSES * 2)
    circ = circuits.Circuit(4, ((1.0, 0j),) * 4, gates, 3, False)
    path = tmp_path / "all_classes.mg"
    path.write_text(circuits.render(circ))

    def forbidden(*args, **kwargs):
        raise AssertionError(f"run {' '.join(flags)} must not compile or take a logarithm")

    monkeypatch.setattr(circuits, "compile", forbidden)
    monkeypatch.setattr(matchgate, "log_to_L", forbidden)
    monkeypatch.setattr(matchgate, "span_logs", forbidden)
    monkeypatch.setattr(matchgate, "principal_logs", forbidden)
    monkeypatch.setattr(scipy.linalg, "logm", forbidden)
    code, data = run_json(capsys, ["run", str(path), *flags])
    assert code == 0 and data["gates"] == 10


def test_quadratic_run_takes_no_logarithm(capsys, tmp_path, monkeypatch):
    _run_with_logarithms_forbidden(capsys, tmp_path, monkeypatch)


def test_dense_run_takes_no_logarithm(capsys, tmp_path, monkeypatch):
    _run_with_logarithms_forbidden(capsys, tmp_path, monkeypatch, "--engine", "dense")


def test_back_to_back_runs_share_no_state(capsys, circuit_file, monkeypatch):
    # the parser is built once per process; each argv must still get its own values
    tols = []
    parse = circuits.parse

    def recording_parse(text, tol):
        tols.append(tol)
        return parse(text, tol=tol)

    monkeypatch.setattr(circuits, "parse", recording_parse)
    code, data = run_json(capsys, ["run", circuit_file, "--engine", "lie", "--tol", "1e-6"])
    assert code == 0 and data["engine"] == "lie"
    code, data = run_json(capsys, ["run", circuit_file])
    assert code == 0 and data["engine"] == "quadratic"
    assert tols == [1e-6, 1e-9]


def test_compare_at_n200(capsys, tmp_path):
    # above the oracle's 12 lines, compare runs the quadratic and Lie engines only
    circ = sampling.random_circuit(200, 150, np.random.default_rng(8), unitary=False)
    assert {spec.cls for spec in circ.gates} == set(circuits.GATE_CLASSES)
    path = tmp_path / "n200.mg"
    path.write_text(circuits.render(circ))
    code, data = run_json(capsys, ["compare", str(path)])
    assert code == 0
    assert set(data["engines"]) == {"quadratic", "lie"}
    assert data["agree"] is True


ORDINARY = ("0", "1", "-1", "0.5", "1i", "-0.5i", "0.6+0.8i")
EXTREME = ("1e200", "-1e200", "1e200i", "1e-200", "1e308", "-1e308", "inf", "nan")


_AMPLITUDES = ("0.0", "-0.0", "1.0", "0.6", "-0.8")
_EXTREME_AMPLITUDES = ("5e-324", "1e-200", "1e200", "1e308", "inf", "nan")


@st.composite
def mg_files(draw):
    """.mg text over the gate grammar: the five classes, lines in and out of range,
    literals from 0 and 1 up to 1e308, inf and nan, state pairs normalised or not,
    V= and W= in either order, and tabs between fields."""
    n = draw(st.integers(1, 4))
    # one extreme literal per file, so that some gates still pass the class rules
    lit = st.sampled_from(ORDINARY + (draw(st.sampled_from(EXTREME)),))
    line = st.one_of(st.integers(1, n), st.integers(0, n + 1))
    index = st.one_of(st.integers(1, 2 * n), st.integers(0, 2 * n + 1))
    sep = draw(st.sampled_from([" ", " ", "\t", " \t "]))
    # an extreme amplitude in half of the files, so that most state lines still parse
    extreme = draw(st.sampled_from(_EXTREME_AMPLITUDES)) if draw(st.booleans()) else "1.0"
    amplitude = st.sampled_from(_AMPLITUDES + (extreme,))

    def matrix(size):  # diagonal half the time, so that the class rules can hold
        diagonal = draw(st.booleans())
        return "[" + ";".join(",".join(draw(lit) if r == c or not diagonal else "0"
                                       for c in range(size)) for r in range(size)) + "]"

    def pair():  # (re,im)(re,im), normalised half the time
        x = [float(draw(amplitude)) for _ in range(4)]
        norm = math.hypot(*x)
        if draw(st.booleans()) and 0 < norm < math.inf:
            x = [v / norm for v in x]
        return f"({x[0]!r},{x[1]!r})({x[2]!r},{x[3]!r})"

    def gate(cls):
        k = draw(line)
        if cls == "gvw":
            V = matrix(2)
            VW = [f"V={V}", f"W={V if draw(st.booleans()) else matrix(2)}"]
            return sep.join(["gvw", str(k), *(VW[::-1] if draw(st.booleans()) else VW)])
        if cls == "diag":
            l = draw(st.one_of(st.just(k + 1), line))
            return sep.join(["diag", str(k), str(l), f"[{','.join(draw(lit) for _ in range(4))}]"])
        if cls == "mg12":
            return f"mg12{sep}B={matrix(4)}"
        if cls == "u1":
            return f"u1{sep}U={matrix(2)}"
        a = [f"a:{mu},{draw(st.one_of(st.just(mu + 1), index))}={draw(lit)}"
             for mu in draw(st.lists(index, max_size=2))]
        b = [f"b:{sigma}={draw(lit)}" for sigma in draw(st.lists(index, max_size=2))]
        return sep.join(["exp", *a, *b, f"s={draw(lit)}"])

    named = st.sampled_from(["0", "1", "+", "-i"])
    state = sep.join(draw(st.one_of(named, named, st.builds(pair))) for _ in range(n))
    gates = [f"gate{sep}{gate(cls)}"
             for cls in draw(st.lists(st.sampled_from(circuits.GATE_CLASSES), min_size=1,
                                      max_size=3))]
    return "\n".join([f"circuit n={n}", f"state{sep}{state}", *gates, f"measure {draw(line)}", ""])


# e^L of logm's result for this gate overflows: the Lie engine's compile must refuse
# it with one error line that says so, not print scipy's accuracy warning and go on
HUGE_U1 = "circuit n=1\nstate 0\ngate u1 U=[0,1;1e200,0]\nmeasure 1\n"
# det U = 0, but numpy's det of U / max|U| is nan: parse must refuse the gate, not pass
# it on to an engine that cannot invert it
SINGULAR_U1 = "circuit n=3\nstate 0 0 0\ngate u1 U=[0,0;1,1e308]\nmeasure 1\n"
# det U = 1e308 passes parse, and scipy's logm of U fails inside: the Lie engine's
# compile must refuse the gate with one error line, not a traceback
LIMIT_U1 = "circuit n=1\nstate 0\ngate u1 U=[0,-1;1e308,0]\nmeasure 1\n"


def test_a_logarithm_too_large_to_check_is_refused_by_name(capsys, tmp_path):
    path = tmp_path / "huge.mg"
    path.write_text(HUGE_U1)
    assert main(["run", str(path), "--engine", "lie"]) == 1
    assert capsys.readouterr() == ("", "error: gate 1 (u1): no accurate logarithm: e^L is not "
                                       "finite (1-norm of L 1.6e+100)\n")


def _assert_cli_contract(tmp_path_factory, argv, text):
    """Exit 0 with one line of strict JSON and nothing on stderr, or exit 1 with one
    error line."""
    path = tmp_path_factory.getbasetemp() / "fuzz.mg"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([argv[0], str(path), *argv[1:]])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert len(out.splitlines()) == 1 and err == "" and _strict_json(out), (text, err)
    else:
        assert (code, out, len(err.splitlines())) == (1, "", 1) and err.startswith("error: "), text


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@example(LARGE_DIAG)
@example(HUGE_U1)
@example(SINGULAR_U1)
@example(LIMIT_U1)
@given(mg_files())
def test_run_keeps_the_cli_contract_on_any_mg_file(tmp_path_factory, text):
    _assert_cli_contract(tmp_path_factory, ["run"], text)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", ENGINE_ARGV[1:], ids=" ".join)
@settings(derandomize=True, max_examples=100, deadline=None)
@example(LARGE_DIAG)
@example(HUGE_U1)
@example(SINGULAR_U1)
@example(LIMIT_U1)
@given(mg_files())
def test_every_engine_keeps_the_cli_contract_on_any_mg_file(tmp_path_factory, argv, text):
    # the Lie engine compiles every gate, and the oracle applies it densely
    _assert_cli_contract(tmp_path_factory, argv, text)


_HUGE_INT_ENTRY = "[[1" + "0" * 400 + ", 0], [0, 1]]"  # beyond the float range
_LONG_INT_ENTRY = "[[" + "1" * 5000 + "]]"  # beyond what json converts to an int
_DEEP_ARRAYS = "[" * 100000 + "]" * 100000


@st.composite
def matrix_json(draw):
    """Matrix-JSON text: 0 to 5 rows of 0 to 5 entries, ragged now and then; ints up
    to 401 digits, floats up to +-1e308 and non-finite ones, [re, im] pairs, bools,
    strings and null; a {"matrix": ...} wrapper; and malformed or deeply nested text."""
    scalar = st.one_of(st.integers(-3, 3), st.integers(-10 ** 400, 10 ** 400),
                       st.floats(-1e308, 1e308), st.sampled_from([0.0, 1.0, 1e-300, 1e308]),
                       st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
                       st.text(max_size=3), st.none())
    entry = st.one_of(scalar, scalar, st.lists(scalar, min_size=0, max_size=3))
    cols = draw(st.integers(0, 5))
    rows = [draw(st.lists(entry, min_size=w, max_size=w))
            for w in draw(st.lists(st.one_of(st.just(cols), st.integers(0, 5)),
                                   min_size=0, max_size=5))]
    data = draw(st.sampled_from([rows, {"matrix": rows}, {"B": rows}, {"other": rows}]))
    text = json.dumps(data)
    kind = draw(st.integers(0, 9))
    if kind == 0:  # cut short
        text = text[:draw(st.integers(0, len(text)))]
    elif kind == 1:  # wrapped in more arrays than a matrix has
        depth = draw(st.sampled_from([1, 2, 50, 5000, 100000]))
        text = "[" * depth + text + "]" * depth
    elif kind == 2:  # a stray character
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("[]{},:\"x-"))) + text[at:]
    return text


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["classify"], ["verify-matchgate"],
                                  ["verify-matchgate", "--physical"]], ids=" ".join)
@settings(derandomize=True, max_examples=100, deadline=None)
@example(_HUGE_INT_ENTRY)
@example(_LONG_INT_ENTRY)
@example(_DEEP_ARRAYS)
@given(matrix_json())
def test_matrix_commands_keep_the_cli_contract_on_any_json(tmp_path_factory, argv, text):
    _assert_cli_contract(tmp_path_factory, argv, text)


def _all_classes_file(tmp_path, unitary=True) -> str:
    """A rendered circuit with every gate class twice, on 4 lines."""
    rng = np.random.default_rng(11)
    gates = tuple(sampling.random_gate(cls, 4, rng, unitary=unitary)
                  for cls in circuits.GATE_CLASSES * 2)
    path = tmp_path / "all_classes.mg"
    path.write_text(circuits.render(circuits.Circuit(4, ((0.6, 0.8j),) * 4, gates, 2, False)))
    return str(path)


def test_run_builds_no_gatespec(capsys, tmp_path, monkeypatch):
    # `run` on each engine, and `compare`, go from the parsed stacks to the engines, through
    # compile's record for the Lie engine: no GateSpec view and no exp_spec is built on
    # the way, for any of the five classes
    path = _all_classes_file(tmp_path)
    built = []
    init = circuits.GateSpec.__init__
    monkeypatch.setattr(circuits.GateSpec, "__init__",
                        lambda self, *args: built.append(args[0]) or init(self, *args))
    exp_spec = circuits.exp_spec
    monkeypatch.setattr(circuits, "exp_spec",
                        lambda *args: built.append("exp_spec") or exp_spec(*args))
    for engine in cli.ENGINES:
        code, data = run_json(capsys, ["run", path, "--engine", engine])
        assert code == 0 and data["gates"] == 10 and built == [], engine
    code, data = run_json(capsys, ["compare", path])
    assert code == 0 and len(data["engines"]) == 3 and built == []


def test_one_input_state_per_call(capsys, tmp_path, monkeypatch):
    # compare hands one ProductState to all three engines, and bench times run's path
    path = _all_classes_file(tmp_path)
    states, engines = [], []
    input_state = circuits.Circuit.input_state
    monkeypatch.setattr(circuits.Circuit, "input_state",
                        lambda self: states.append(self.n) or input_state(self))
    code, data = run_json(capsys, ["compare", path])
    assert code == 0 and len(data["engines"]) == 3 and states == [4]
    run_engine = cli._run_engine
    monkeypatch.setattr(cli, "_run_engine",
                        lambda engine, *args: engines.append(engine) or run_engine(engine, *args))
    code, data = run_json(capsys, ["bench", "--n", "8,16", "--gates", "20", "--seed", "7"])
    assert code == 0 and engines == ["quadratic"] * 4 and states == [4, 8, 8, 16, 16]


def _outcome_bits(call):
    """A call's value as its repr, so that the sign of a zero counts, or its error."""
    try:
        with np.errstate(all="ignore"):
            value = call()
    except Exception as exc:  # compared, not hidden: both sides must fail alike
        return type(exc).__name__, str(exc)
    return repr(getattr(value, "expectation", value))


def _assert_engines_read_the_record_as_its_gatespecs(circ):
    """The record parse filled and the one as_gates reads from the same gates' GateSpecs
    give the quadratic engine, the Lie engine and the oracle the same values, bit for bit:
    a parsed exp line's entries, in line order, read as its GateSpec's, sorted."""
    again = dataclasses.replace(circ, gates=tuple(circ.gates))
    assert again.gates is not circ.gates and again.gates == circ.gates
    state = circ.input_state()
    for run in (lambda c: engine_quadratic.simulate(c.gates, state, c.k, unitary=c.unitary),
                lambda c: engine_lie.simulate(c.gates, state, c.k, unitary=c.unitary),
                lambda c: oracle.expectation_heisenberg(c.gates, state, c.k)):
        assert _outcome_bits(lambda: run(circ)) == _outcome_bits(lambda: run(again))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mg_files())
def test_engines_read_the_parsed_record_as_its_gatespecs(text):
    try:
        circ = circuits.parse(text)
    except MgsimError:
        return
    _assert_engines_read_the_record_as_its_gatespecs(circ)


def test_an_exp_line_in_any_key_order_reads_as_its_gatespec():
    # a record holds an exp line's entries in line order: the Lie engine sorts them into
    # ascending basis indices and the oracle into the GateSpec's order, a, b, then s, in
    # which it sums the terms that share a block entry, so no value moves by a bit
    for line in ("s=0.3 a:3,4=0.2 b:5=0.2i a:1,2=0.1 b:1=-0.5i a:2,5=0.7",
                 "a:5,6=0.1 s=0.7 a:3,4=0.2 a:1,2=0.3"):
        circ = circuits.parse(f"circuit n=3\nstate + i -\ngate exp {line}\nmeasure 2\n")
        _assert_engines_read_the_record_as_its_gatespecs(circ)


def test_engines_read_every_class_of_the_record_as_its_gatespecs():
    # mg_files' random matrices seldom pass the gvw, diag and mg12 rules; these do
    rng = np.random.default_rng(12)
    for trial in range(20):
        circ = sampling.random_circuit(1 + trial % 6, 30, rng, unitary=bool(trial % 2))
        _assert_engines_read_the_record_as_its_gatespecs(circuits.parse(circuits.render(circ)))


def test_per_class_sub_circuits_compile_and_run_on_every_engine(tmp_path):
    # a circuit cut into one sub-circuit per class, as a caller tracing compile class by
    # class builds them: each compiles and runs on the three engines, and the pieces
    # put back in order are the whole circuit's compiled gates
    for unitary in (True, False):
        circ = circuits.parse(Path(_all_classes_file(tmp_path, unitary)).read_text())
        state = circ.input_state()
        gates = [None] * len(circ.gates)
        for cls in circuits.GATE_CLASSES:
            idx = [i for i, g in enumerate(circ.gates) if g.cls == cls]
            sub = dataclasses.replace(circ, gates=tuple(circ.gates[i] for i in idx))
            compiled = circuits.compile(sub)
            for i, g in zip(idx, compiled):
                gates[i] = g
            values = [engine_quadratic.simulate(sub.gates, state, sub.k).expectation,
                      engine_quadratic.simulate(compiled, state, sub.k).expectation,
                      engine_lie.simulate(compiled, state, sub.k).expectation,
                      oracle.expectation_heisenberg(sub.gates, state, sub.k),
                      oracle.expectation_heisenberg(compiled, state, sub.k)]
            assert max(abs(v - values[0]) for v in values) < 1e-9, (cls, values)
        assert repr(gates) == repr(list(circuits.compile(circ)))
