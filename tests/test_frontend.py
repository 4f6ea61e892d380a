import numpy as np
import pytest

from mgsim import circuits, sampling
from mgsim.circuits import (Circuit, classify, parse, parse_complex, render,
                            render_complex)
from mgsim.errors import GateClassError, ParseError
from mgsim.oracle import apply_matrix, run_circuit
from mgsim.sampling import random_su2

H = 0.7071067811865476

MINIMAL = """circuit n=2
state 0 0
gate gvw 1 V=[1,0;0,1] W=[1,0;0,1]
measure 1
"""


def test_minimal_circuit():
    c = parse(MINIMAL)
    assert c.n == 2 and c.k == 1 and c.unitary
    assert c.gates[0].cls == "gvw" and c.gates[0].lines == (1, 2)


def test_hadamard_gate():
    c = parse(f"circuit n=1\nstate 0\ngate u1 U=[{H},{H};{H},-{H}]\nmeasure 1\n")
    U = np.array(c.gates[0].param("U"))
    assert np.allclose(U @ U, np.eye(2), atol=1e-12)


def test_cz_diagonal_rejected():
    with pytest.raises(ParseError, match="B11\\*B44 = B22\\*B33"):
        parse("circuit n=3\nstate 0 0 0\ngate diag 1 3 [1,1,1,-1]\nmeasure 1\n")


def test_comments_and_blank_lines():
    text = "# header comment\n\ncircuit n=1  # trailing\nstate +\nmeasure 1\n"
    c = parse(text)
    assert c.n == 1 and len(c.gates) == 0


@pytest.mark.parametrize("text,fragment", [
    ("state 0\nmeasure 1\n", "before circuit header"),
    ("circuit n=2\nstate 0\nmeasure 1\n", "state needs 2 tokens"),
    ("circuit n=2\nstate 0 0\nmeasure 3\n", "outside 1..2"),
    ("circuit n=2\nstate 0 0\ngate gvw 2 V=[1,0;0,1] W=[1,0;0,1]\nmeasure 1\n",
     "nearest-neighbour"),
    ("circuit n=2\nstate 0 0\ngate bogus\nmeasure 1\n", "unknown gate class"),
    ("circuit n=2\nstate 0 0\nfrobnicate\nmeasure 1\n", "unknown statement"),
    ("circuit n=2\nstate 0 0\n", "missing measure"),
    ("circuit n=2\nstate 0 0\ngate gvw 1 V=[1,0;0,1] W=[2,0;0,1]\nmeasure 1\n",
     "determinant mismatch"),
    ("circuit n=2\nstate 0 0\ngate exp a:2,1=1\nmeasure 1\n", "invalid for n=2"),
    ("circuit n=2\nstate 0 0\ngate gvw 1 V=[1,0;0,0] W=[0,0;0,1]\nmeasure 1\n",
     "gvw gate rejected: matrix is not invertible"),
    ("circuit n=2\nstate 0 0\ngate mg12 B=[1,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0]\nmeasure 1\n",
     "mg12 gate rejected: matrix is not invertible"),
    ("circuit n=2\nstate 0 0\ngate u1 U=[1,2;2,4]\nmeasure 1\n",
     "u1 gate rejected: matrix is not invertible"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse(text)


def test_parse_error_carries_line_number():
    try:
        parse("circuit n=2\nstate 0 0\ngate diag 1 2 [1,1,1,-1]\nmeasure 1\n")
    except ParseError as exc:
        assert exc.line == 3


def test_mg12_rejects_non_matchgate():
    swap = "[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1]"
    with pytest.raises(ParseError, match="matchgate identities"):
        parse(f"circuit n=2\nstate 0 0\ngate mg12 B={swap}\nmeasure 1\n")


def test_complex_literals():
    assert parse_complex("1") == 1
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.5e-3-2i") == -1.5e-3 - 2j
    with pytest.raises(ParseError):
        parse_complex("two")


def test_complex_render_round_trip(rng):
    for _ in range(200):
        v = complex(rng.normal() * 10.0 ** rng.integers(-9, 9), rng.normal())
        assert parse_complex(render_complex(v)) == v
    assert parse_complex(render_complex(0.5 + 0j)) == 0.5
    assert parse_complex(render_complex(-2j)) == -2j


def test_state_tokens():
    c = parse("circuit n=6\nstate 0 1 + - i -i\nmeasure 1\n")
    amps = np.array(c.state)
    assert np.allclose(np.linalg.norm(amps, axis=1), 1.0)
    s = 1 / np.sqrt(2)
    assert np.allclose(amps[2], [s, s])
    assert np.allclose(amps[5], [s, -1j * s])


def test_explicit_amplitudes_normalized():
    c = parse("circuit n=1\nstate (3.0,0.0)(0.0,4.0)\nmeasure 1\n")
    assert np.allclose(c.state[0], (0.6, 0.8j))


def test_render_round_trip_random(rng):
    for _ in range(25):
        n = int(rng.integers(1, 6))
        circ = sampling.random_circuit(n, int(rng.integers(0, 6)), rng,
                                       unitary=bool(rng.integers(0, 2)))
        again = parse(render(circ))
        assert again == circ


def test_unitary_flag_detection(rng):
    uni = sampling.random_circuit(3, 5, rng, unitary=True)
    assert parse(render(uni)).unitary
    non = sampling.random_circuit(3, 5, rng, classes=("u1",), unitary=False)
    assert not parse(render(non)).unitary


def test_exp_unitary_flag_matches_exponent_test(rng):
    from mgsim.exponents import is_unitary_exponent

    for trial in range(20):
        circ = sampling.random_circuit(3, 4, rng, classes=("exp",), unitary=bool(trial % 2))
        expected = all(is_unitary_exponent(g) for g in circuits.compile(circ))
        assert parse(render(circ)).unitary == expected == bool(trial % 2)


def test_compile_mixed_circuit_matches_dense(rng):
    # product of compiled dense gates equals product of the raw gate matrices
    from mgsim.oracle import dense_gate

    n = 3
    circ = sampling.random_circuit(n, 5, rng, unitary=False)
    gates = circuits.compile(circ)
    state = circ.input_state()
    psi = run_circuit(gates, state, n)
    ref = state.to_vector()
    for spec in circ.gates:
        if spec.cls == "gvw":
            from mgsim import matchgate
            B = matchgate.g_vw(np.array(spec.param("V")), np.array(spec.param("W")), tol=1e-6)
            ref = apply_matrix(ref, B, spec.lines, n)
        elif spec.cls == "diag":
            k, l = spec.lines
            d = spec.param("d")
            ref = apply_matrix(ref, np.diag(d), (k, l), n)
        elif spec.cls == "mg12":
            ref = apply_matrix(ref, np.array(spec.param("B")), (1, 2), n)
        elif spec.cls == "u1":
            ref = apply_matrix(ref, np.array(spec.param("U")), (1,), n)
        else:
            ref = dense_gate(circuits._compile_gate(spec, n, 1e-9)) @ ref
    assert np.linalg.norm(psi - ref) < 1e-9


def test_compile_error_names_gate_index():
    c = parse("circuit n=2\nstate 0 0\ngate u1 U=[1,0;0,1]\nmeasure 1\n")
    bad = Circuit(c.n, c.state, (c.gates[0],
                                 circuits.GateSpec("u1", (1,), (("U", ((0j, 0j), (0j, 0j))),))),
                  c.k, False)
    with pytest.raises(GateClassError, match="gate 2"):
        circuits.compile(bad)


def test_classify():
    assert classify(np.eye(4)) == ["mg12", "gvw", "diag"]
    assert classify(np.eye(4)[[0, 2, 1, 3]]) == []
    assert "u1" in classify(np.array([[0, 1], [1, 0]]))
    cz_like = np.diag([1, 1j, 1j, -1])
    assert "diag" in classify(cz_like)


def test_classify_gvw(rng):
    from mgsim import matchgate
    B = matchgate.g_vw(random_su2(rng), random_su2(rng))
    assert "gvw" in classify(B)
