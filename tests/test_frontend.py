import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from conftest import apply_gate, apply_matrix, dense_gate, is_unitary_exponent
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgsim import circuits, matchgate, sampling
from mgsim.circuits import _gates_are_unitary, classify, parse, parse_complex, render, render_complex
from mgsim.engine_quadratic import simulate
from mgsim.errors import GateClassError, ParseError
from mgsim.sampling import random_su2
from test_cli import CLOSURE_ONLY

import reference_parse

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
    ("circuit n=2\nstate 0 0\ngate exp b:5=1\nmeasure 1\n", "linear index 5 outside 1..4"),
    ("circuit n=2\nstate 0 0\ngate gvw 1 V=[1,0;0,0] W=[0,0;0,1]\nmeasure 1\n",
     "gvw gate rejected: matrix is not invertible"),
    ("circuit n=2\nstate 0 0\ngate mg12 B=[1,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0]\nmeasure 1\n",
     "mg12 gate rejected: matrix is not invertible"),
    ("circuit n=2\nstate 0 0\ngate u1 U=[1,2;2,4]\nmeasure 1\n",
     "u1 gate rejected: matrix is not invertible"),
    ("circuit n=2\nstate 0 0\ngate diag 1 2 [1,0,0,1]\nmeasure 1\n",
     "diag entries must be nonzero"),
    # a key given twice is refused, not overwritten by its last value
    ("circuit n=2\nstate 0 0\ngate exp a:1,3=1 a:1,3=0.5\nmeasure 1\n",
     "line 3: repeated exp parameter 'a:1,3'"),
    ("circuit n=2\nstate 0 0\ngate exp b:1=0.3i b:1=0.7i\nmeasure 1\n",
     "line 3: repeated exp parameter 'b:1'"),
    ("circuit n=2\nstate 0 0\ngate exp s=1 s=2i\nmeasure 1\n",
     "line 3: repeated exp parameter 's'"),
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


def test_compiled_circuit_round_trips_and_keeps_its_value(rng):
    # a compiled circuit is an all-exp circuit: rendered and parsed back it gives the
    # same gates, and the same value as the circuit it was compiled from
    seen = set()
    for trial in range(40):
        n = 1 + trial % 6
        circ = sampling.random_circuit(n, int(rng.integers(1, 12)), rng, unitary=bool(trial % 2))
        seen.update(g.cls for g in circ.gates)
        compiled = dataclasses.replace(circ, gates=tuple(circuits.compile(circ)))
        again = parse(render(compiled))
        assert again.gates == compiled.gates and all(g.cls == "exp" for g in again.gates)
        state = circ.input_state()
        ref = simulate(circ.gates, state, circ.k).expectation
        got = simulate(again.gates, state, again.k).expectation
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (n, got, ref)
    assert seen == set(circuits.GATE_CLASSES)


def test_unitary_flag_detection(rng):
    uni = sampling.random_circuit(3, 5, rng, unitary=True)
    assert parse(render(uni)).unitary
    non = sampling.random_circuit(3, 5, rng, classes=("u1",), unitary=False)
    assert not parse(render(non)).unitary


def _gate_is_unitary(spec, tol):
    """Reference: one np.allclose per V, W, U or B matrix."""
    if spec.cls == "diag":
        return all(abs(abs(d) - 1.0) <= tol for d in spec.param("d"))
    if spec.cls == "exp":
        return (all(abs(val.imag) <= tol for _, val in spec.param("a"))
                and all(abs(val.real) <= tol for _, val in spec.param("b"))
                and abs(spec.param("s").real) <= tol)
    return all(np.allclose(np.array(m).conj().T @ np.array(m), np.eye(len(m)), atol=tol)
               for _, m in spec.params)


def test_batch_unitary_check_matches_per_matrix_reference(rng):
    for tol in (1e-8, 1e-6):
        for unitary in (True, False):
            for cls in circuits.GATE_CLASSES:
                gates = [sampling.random_gate(cls, 4, rng, unitary=unitary) for _ in range(6)]
                for g in gates:
                    assert _gates_are_unitary([g], tol) == _gate_is_unitary(g, tol)
                ref = all(_gate_is_unitary(g, tol) for g in gates)
                assert _gates_are_unitary(gates, tol) == ref
        for trial in range(40):
            circ = sampling.random_circuit(4, int(rng.integers(1, 12)), rng,
                                           unitary=bool(trial % 2))
            ref = all(_gate_is_unitary(g, tol) for g in circ.gates)
            assert _gates_are_unitary(circ.gates, tol) == ref
            assert not ref or trial % 2  # a non-unitary draw is seen as such


def _rows(m):
    return tuple(tuple(complex(e) for e in row) for row in m)


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_batch_unitary_check_at_the_bound(rng, tol, factor):
    # M^H M - I reaches factor times the bound, on the diagonal (bound
    # tol + 1e-5, through a scale 1 + delta) or off it (bound tol, through a shear)
    inside = factor < 1
    scale = np.sqrt(1 + factor * (tol + 1e-5))
    shear = np.array([[1, factor * tol], [0, 1]])
    U, V = sampling.random_su2(rng), sampling.random_su2(rng)
    good = [sampling.random_gate(cls, 4, rng) for cls in ("gvw", "u1", "mg12")]
    B = np.array(good[2].param("B"))
    perturbed = [
        circuits.GateSpec("u1", (1,), (("U", _rows(scale * U)),)),
        circuits.GateSpec("u1", (1,), (("U", _rows(U @ shear)),)),
        circuits.GateSpec("gvw", (1, 2), (("V", _rows(V)), ("W", _rows(U @ shear)))),
        circuits.GateSpec("mg12", (1, 2), (("B", _rows(scale * B)),)),
    ]
    for spec in perturbed:
        assert _gate_is_unitary(spec, tol) == inside
        assert _gates_are_unitary([spec], tol) == inside
        assert _gates_are_unitary(good + [spec], tol) == inside
    assert _gates_are_unitary(good, tol)


def test_exp_unitary_flag_matches_exponent_test(rng):
    for trial in range(20):
        circ = sampling.random_circuit(3, 4, rng, classes=("exp",), unitary=bool(trial % 2))
        expected = all(is_unitary_exponent(g) for g in circuits.compile(circ))
        assert parse(render(circ)).unitary == expected == bool(trial % 2)


def test_compile_mixed_circuit_matches_dense(rng):
    # product of compiled dense gates equals product of the raw gate matrices
    n = 3
    circ = sampling.random_circuit(n, 5, rng, unitary=False)
    psi = ref = circ.input_state().to_vector()
    for g in circuits.compile(circ):
        psi = apply_gate(psi, g, n)
    for spec in circ.gates:
        if spec.cls == "exp":
            ref = dense_gate(spec, n) @ ref
        else:  # a u1 gate's matrix is U (x) I on lines 1, 2
            ref = apply_matrix(ref, circuits.gate_matrices([spec])[0],
                               (1, 2) if spec.cls == "u1" else spec.lines, n)
    assert np.linalg.norm(psi - ref) < 1e-9


def test_compile_error_names_gate_index():
    # parse accepts the closure-only gate, and no logarithm branch of it lies in the span
    text = CLOSURE_ONLY.replace("gate gvw", "gate u1 U=[1,0;0,1]\ngate gvw")
    with pytest.raises(GateClassError, match=r"gate 2 \(gvw\): no logarithm branch"):
        circuits.compile(parse(text))


@pytest.mark.parametrize("first", ["u1", "gvw"])
def test_compile_names_the_earliest_failing_gate_across_classes(first):
    # the u1 gate's logm result cannot be checked, and the closure-only gvw gate has
    # no branch in the span: the two are refused in their own class stacks, and the
    # error names whichever comes first in the circuit
    faults = {"u1": "gate u1 U=[0,1;1e200,0]", "gvw": "gate gvw 1 V=[1,1;0,1] W=[-1,1;0,-1]"}
    second = "gvw" if first == "u1" else "u1"
    circ = parse(f"circuit n=2\nstate 0 +\ngate u1 U=[0,1;1,0]\n{faults[first]}\n"
                 f"gate diag 1 2 [1,1,1,1]\n{faults[second]}\nmeasure 1\n")
    expected = {"u1": "no accurate logarithm: e^L is not finite",
                "gvw": "no logarithm branch found in the generator span"}[first]
    with pytest.raises(GateClassError, match=re.escape(f"gate 2 ({first}): {expected}")):
        circuits.compile(circ)


def test_compile_repeats_no_parse_check(rng, monkeypatch):
    # parse checked every determinant and identity, so compile takes neither
    circ = parse(render(sampling.random_circuit(4, 40, rng, unitary=False)))
    assert {g.cls for g in circ.gates} == set(circuits.GATE_CLASSES)
    calls = []
    det, is_matchgate = np.linalg.det, matchgate.is_matchgate

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "det", counting("det", det))
    monkeypatch.setattr(matchgate, "is_matchgate", counting("is_matchgate", is_matchgate))
    circuits.compile(circ)
    assert calls == []


def test_classify():
    assert classify(np.eye(4)) == ["mg12", "gvw", "diag"]
    assert classify(np.eye(4)[[0, 2, 1, 3]]) == []
    assert "u1" in classify(np.array([[0, 1], [1, 0]]))
    cz_like = np.diag([1, 1j, 1j, -1])
    assert "diag" in classify(cz_like)


def test_classify_gvw(rng):
    B = matchgate.g_vw(random_su2(rng), random_su2(rng))
    assert "gvw" in classify(B)


@pytest.mark.parametrize("matrix, error", [
    ("[1,x;2,3]", "line 3: bad complex literal 'x'"),
    ("[1,2;3]", "line 3: ragged matrix rows"),
    ("[1,2;x]", "line 3: bad complex literal 'x'"),
    ("[inf,1;0,1]", "line 3: bad complex literal 'inf'"),
    ("[1e999,0;0,1]", "line 3: non-finite complex literal '1e999'"),
    ("[nan,0;0,1]", "line 3: non-finite complex literal 'nan'"),
    ("[1,2;3,4;]", "line 3: bad complex literal ''"),
    ("[]", "line 3: bad complex literal ''"),
    ("[1;2]", "line 3: U must be 2x2, got 2x1"),
])
def test_matrix_errors_name_the_first_bad_entry(matrix, error):
    # the message is the one parse_complex gives for the first bad entry, or the layout
    # fault of the row or matrix the walk met before it
    with pytest.raises(ParseError) as exc:
        parse(f"circuit n=1\nstate 0\ngate u1 U={matrix}\nmeasure 1\n")
    assert str(exc.value) == error


def test_matrix_round_trip_is_exact(rng):
    # the one conversion of a class's rendered entries gives parse_complex's values, bit
    # for bit, in the parsed gates and in the parameter stack the class rules run on; each
    # value v sits in U = [[1, v], [-v, 1]], whose det 1 + v^2 passes the u1 rule
    values = [complex(rng.normal() * 10.0 ** rng.integers(-300, 300), rng.normal())
              for _ in range(400)] + [complex(-0.0, 0.0), complex(0.0, -0.0), 5e-324, -5e-324j]
    texts = [circuits._render_matrix(((1.0, v), (-v, 1.0))) for v in values]
    text = "circuit n=1\nstate 0\n" + "".join(f"gate u1 U={t}\n" for t in texts) + "measure 1\n"
    want = tuple(tuple(tuple(parse_complex(e) for e in row.split(","))
                       for row in t[1:-1].split(";")) for t in texts)
    got = tuple(g.param("U") for g in parse(text).gates)
    assert got == want and repr(got) == repr(want)
    _, params = circuits._read_gates([(i, ["u1", f"U={t}"]) for i, t in enumerate(texts)], 1, 1e-9)
    assert repr(params["u1"]["U"].tolist()) == repr([[list(row) for row in m] for m in want])


@pytest.mark.parametrize("text, error", [
    # the batched determinant checks run before a later line's error is raised
    ("gate gvw 1 V=[1,0;0,1] W=[2,0;0,1]\ngate diag 1 2 [1,1,1,-1]\n",
     "line 3: gvw gate rejected: determinant mismatch: det V = (1+0j), det W = (2+0j)"),
    ("gate gvw 1 V=[1,0;0,1] W=[2,0;0,1]\nfrobnicate\n",
     "line 3: gvw gate rejected: determinant mismatch: det V = (1+0j), det W = (2+0j)"),
    ("gate u1 U=[1,1;1,1]\ngate gvw 1 V=[1,0;0,1] W=[2,0;0,1]\n",
     "line 3: u1 gate rejected: matrix is not invertible (|det| = 0.000e+00)"),
    ("gate gvw 1 V=[1,0;0,1] W=[1,0;0,1]\ngate gvw 2 V=[0,0;0,0] W=[0,0;0,0]\n"
     "gate gvw 1 V=[1,0;0,1] W=[3,0;0,1]\n",
     "line 4: gvw gate rejected: matrix is not invertible (|det| = 0.000e+00)"),
    ("gate mg12 B=[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,0]\n",
     "line 3: mg12 gate rejected: matrix fails the matchgate identities"),
    # a gate line's own error is raised at its line, before a later line is read ...
    ("gate u1 U=[1,x;0,1]\nfrobnicate\n", "line 3: bad complex literal 'x'"),
    # ... but after the class rules of the gates above it
    ("gate gvw 1 V=[1,0;0,1] W=[2,0;0,1]\ngate u1 U=[1,x;0,1]\n",
     "line 3: gvw gate rejected: determinant mismatch: det V = (1+0j), det W = (2+0j)"),
    ("gate gvw 1 V=[1,0;0,1] W=[1,0;0,1]\ngate diag 1 2 [1,1,1,x]\n",
     "line 4: bad complex literal 'x'"),
])
def test_batched_gate_checks_report_the_first_failing_gate(text, error):
    with pytest.raises(ParseError) as exc:
        parse(f"circuit n=3\nstate 0 0 0\n{text}measure 1\n")
    assert str(exc.value) == error


def _scalar_cases(cls: str, rng):
    """600 gate lines of one class whose rule gap sits within rounding of tol, and whether
    each passes by Python's scalar complex formula on e = entries / max(1, max |entry|):
    diag |e1 e4 - e2 e3| <= tol; gvw |det V - det W| <= tol (|det V| + |det W| + 1); u1
    |det U| m^2 > tol."""
    lines, expected = [], []
    for _ in range(600):
        d = np.exp(2j * np.pi * rng.random(4)) if cls == "diag" else None
        jitter = 1 + 1e-8 * rng.integers(-3, 4)
        scale = rng.choice([1.0, 1e150, 1e200] if cls != "u1" else [1.0, 1e-3, 1e3])
        if cls == "diag":
            d[3] = d[1] * d[2] / d[0] * (1 + 1e-9 * jitter)
            mats = [(d * scale).tolist()]
        elif cls == "gvw":
            V = random_su2(rng) * scale
            a = abs(np.linalg.det(V / max(1.0, np.abs(V).max())))
            W = V * [[1 + 1e-9 * (2 * a + 1) / a * jitter], [1]]  # |det W - det V| about its bound
            mats = [M.ravel().tolist() for M in (V, W)]
        else:
            U = random_su2(rng) * [[1], [1e-9 * jitter / scale ** 2]]  # |det U| about tol
            mats = [(U * scale).ravel().tolist()]
        m = max(1.0, max(abs(x) for M in mats for x in M))
        dets = [e[0] * e[3] - e[1] * e[2] for e in ([x / m for x in M] for M in mats)]
        if cls == "diag":
            lines.append(f"diag 1 2 {circuits._render_matrix(mats)}")
            expected.append(abs(dets[0]) <= 1e-9)
        elif cls == "gvw":
            V, W = (circuits._render_matrix([M[:2], M[2:]]) for M in mats)
            lines.append(f"gvw 1 V={V} W={W}")
            expected.append(abs(dets[0] - dets[1]) <= 1e-9 * (abs(dets[0]) + abs(dets[1]) + 1))
        else:
            lines.append(f"u1 U={circuits._render_matrix([mats[0][:2], mats[0][2:]])}")
            expected.append(abs(dets[0]) * m * m > 1e-9)
    return lines, expected


@pytest.mark.parametrize("cls, message", [("diag", "B11\\*B44 = B22\\*B33"),
                                          ("gvw", "determinant mismatch"),
                                          ("u1", "u1 gate rejected: matrix is not invertible")])
def test_the_batched_diag_rule_decides_as_the_scalar_formula(rng, cls, message):
    # gaps within rounding of tol: a gate passes exactly when its rule holds in Python's
    # complex arithmetic, in one parse of many gates as in a parse of each, so that no
    # CPU's complex abs, product or LAPACK determinant can move the decision
    lines, expected = _scalar_cases(cls, rng)
    assert 100 < sum(expected) < 500
    for line, ok in zip(lines, expected):
        assert _parses(line) == ok
    with pytest.raises(ParseError, match=message) as exc:
        parse("circuit n=2\nstate 0 0\n" + "".join(f"gate {g}\n" for g in lines) + "measure 1\n")
    assert exc.value.line == 3 + expected.index(False)


def test_large_gate_entries_pass_the_batched_checks():
    # V = W = 1e160 I has det V = det W = 1e320, which overflows; the checks divide
    # by the largest entry first, and tiny entries are still refused as singular
    big = "[1e160,0;0,1e160]"
    assert parse(f"circuit n=2\nstate 0 0\ngate gvw 1 V={big} W={big}\nmeasure 1\n").gates
    with pytest.raises(ParseError, match=r"not invertible \(\|det\| = 0.000e\+00\)"):
        tiny = "[1e-170,0;0,1e-170]"
        parse(f"circuit n=2\nstate 0 0\ngate gvw 1 V={tiny} W={tiny}\nmeasure 1\n")
    B = "[" + ";".join(",".join("1e200" if r == c else "0" for c in range(4))
                       for r in range(4)) + "]"
    assert parse(f"circuit n=2\nstate 0 0\ngate mg12 B={B}\nmeasure 1\n").gates
    assert classify(1e200 * np.eye(4)) == ["mg12", "gvw", "diag"]


_AMPLITUDE = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 0.6, 0.8, 1.0, 1e-200,
                                                              1e200, 5e-324]))
_BROKEN = ["(1,x)(0,0)", "(inf,0)(1,0)", "(nan,0)(1,0)", "(1,0,0)(0,0)", "(0,0)(0,0)", "(1,0)",
           "((1,0)(0,1))", "(1_0,0)(0,1)", "(1e400,0)(0,1)", "(1,0)(0,1)(0,1)", "(,1)(0,1)",
           "x", "(1,0)(0,1", "(1,0)x(0,1)", "(1e-200,0)(0,0)"]


@st.composite
def state_tokens(draw):
    """State tokens: named ones, (re,im)(re,im) pairs normalised or not, and now and
    then a malformed or degenerate one."""
    def pair():
        x = [draw(_AMPLITUDE) for _ in range(4)]
        if draw(st.booleans()):
            norm = math.hypot(*x)
            x = [v / norm for v in x] if norm else x
        return f"({x[0]!r},{x[1]!r})({x[2]!r},{x[3]!r})"

    named = st.sampled_from(["0", "1", "+", "-", "i", "-i"])
    token = st.one_of(named, st.builds(pair), st.builds(pair))
    toks = draw(st.lists(token, min_size=1, max_size=12))
    if draw(st.integers(0, 3)) == 0:
        toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(_BROKEN)))
    return toks


def _state_outcome(body, n):
    """parse's and the reference's outcomes for a file whose state line body is body."""
    text = f"circuit n={n}\nstate {body}\nmeasure 1\n"
    return _outcome(text), _per_line_outcome(text)


@settings(derandomize=True, max_examples=200, deadline=None)
@example(["(0.6,0.0)(0.0,0.8)"] * 20, " ", 0)
@example(["(3.0,0.0)(0.0,4.0)", "+"], " ", 0)
@example(["(1,0)(0,0)", "0"], "\t", -1)
@given(state_tokens(), st.sampled_from([" ", " ", " ", "  ", "\t", "\u00a0", "\x1f"]),
       st.sampled_from([0, 0, 0, -1, 1]))
def test_bulk_state_parse_equals_the_per_token_parse(toks, sep, extra):
    # named tokens, pairs on and off norm, and any whitespace between tokens read as the
    # per-token reference reads them; n may differ from the number of tokens
    got, ref = _state_outcome(sep.join(toks), max(1, len(toks) + extra))
    assert got == ref and repr(got) == repr(ref)


@pytest.mark.parametrize("body, n", [
    ("(1,0)(0,0)\t0", 1), ("(1,0)(0,0)\t0 (1,0)(0,0)", 2), ("(\t1,0)(0,0)", 1),
    ("(1,0\t)(0,0)", 1), ("(1,0)(0,0)\u00a00", 1), ("(1,0)(0,0)\u00a0(1,0)(0,0)", 2),
    ("(1,0)(0,0)\x1f(1,0)(0,0)", 2), ("(1,0)(0,0)x", 1), ("0(1,0)(0,0)", 1),
    ("(1,0)0(0,0)", 1), ("(1,0)(0,0)x (1,0)(0,0)", 2), ("(1,0)(0,0) x(1,0)(0,0)", 2),
    ("(1,0)(0,0)", 2), ("(1,0)(0,0) (1,0)(0,0)", 1), ("(1,0)(0,0) (1,0)(0,0)", 3),
    ("(1,0)(0,0) 0", 1), ("(1,0)(0,0)\n(1,0)(0,0)", 2), ("(1_0,0)(0,0)", 1),
    ("(\u0661,0)(0,0)", 1), ("(3,0)(0,4) (nan,0)(1,0)", 2), ("(0,0)(0,0) (1,x)(0,0)", 2),
    ("((1,0)(0,1))", 1), ("(1,0))((0,1)", 1), ("()(1,0)(0,1)", 1), ("(1,0,0)(1)", 1),
    ("(1,0)(0,1,2)", 1), ("(inf,0)(1,x)", 1), ("(1,x)(0,1,2)", 1), ("(1,0)(0,1)(0,1)", 1),
    ("(1,0)(1)", 1), ("(1)(0,1)", 1), ("(0,0)(0,0) (1)(0,1)", 2)])
def test_state_bodies_read_as_in_the_per_token_parse(body, n):
    # whitespace inside or between tokens, junk before, after or between the pairs, a
    # parenthesis or comma too many, and a token count other than n all read as the
    # per-token reference reads them
    got, ref = _state_outcome(body, n)
    assert got == ref and repr(got) == repr(ref)


def test_the_one_pass_state_reader_takes_pairs(monkeypatch):
    # pairs, named tokens and runs of whitespace take one conversion; only a pair off
    # norm is normalised, and the pairs are read one at a time only on a line with a fault
    pairs = ["(0.6,0.0)(0.0,0.8)", "(1.0,-0.0)(0.0,0.0)", "(0.0,5e-324)(-1.0,0.0)", "-i"]
    normalised, located = [], []
    normalise, locate = circuits._normalised, circuits._raise_amplitude_fault
    monkeypatch.setattr(circuits, "_normalised",
                        lambda a, b, lineno: normalised.append((a, b)) or normalise(a, b, lineno))
    monkeypatch.setattr(circuits, "_raise_amplitude_fault",
                        lambda toks, lineno: located.append(toks) or locate(toks, lineno))
    for body in (" ".join(pairs), "  \t".join(pairs), " ".join(pairs + ["(3,0)(0,4)"])):
        got, ref = _state_outcome(body, len(body.split()))
        assert got == ref and not isinstance(got[0], str)
    assert normalised == [(3 + 0j, 4j)] and located == []
    got, ref = _state_outcome(" ".join(pairs + ["(1,0)(0,1,2)"]), 5)
    assert got == ref == ("line 2: bad amplitude pair '0,1,2'", 2)
    assert located == [pairs[:3] + ["(1,0)(0,1,2)"]]


def _gate_lines(B) -> dict:
    """The one-gate lines that carry B exactly, by class: u1 for a 2x2 B; mg12 for a
    4x4 one, plus gvw when B is zero outside the parity blocks and diag when it is
    diagonal."""
    if B.shape == (2, 2):
        return {"u1": f"u1 U={circuits._render_matrix(B)}"}
    lines = {"mg12": f"mg12 B={circuits._render_matrix(B)}"}
    V, W = matchgate.extract_vw(B)
    if np.array_equal(matchgate.g_vw(V, W), B):
        lines["gvw"] = f"gvw 1 V={circuits._render_matrix(V)} W={circuits._render_matrix(W)}"
    if np.array_equal(np.diag(np.diag(B)), B):
        lines["diag"] = f"diag 1 2 {circuits._render_matrix([np.diag(B)])}"
    return lines


def _parses(line: str) -> bool:
    try:
        parse(f"circuit n=2\nstate 0 +\ngate {line}\nmeasure 1\n")
    except ParseError:
        return False
    return True


def _classify_cases() -> dict:
    """2x2 and 4x4 matrices on both sides of each class rule, by name."""
    rng = np.random.default_rng(19)
    cases = {"zero 4x4": np.zeros((4, 4)), "diag(1,0,0,0)": np.diag([1.0, 0, 0, 0]),
             "1e-5 I (2x2)": 1e-5 * np.eye(2),
             "G(I, diag(1,1+5e-10))": matchgate.g_vw(np.eye(2), np.diag([1, 1 + 5e-10])),
             "diag(1,1,1,1+5e-10)": np.diag([1, 1, 1, 1 + 5e-10]),
             "closure-only": matchgate.g_vw([[1, 1], [0, 1]], [[-1, 1], [0, -1]])}
    for i in range(3):
        M4, M2 = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in (4, 2))
        V, W = random_su2(rng), random_su2(rng)
        d = np.exp(2j * np.pi * rng.random(4))
        d[3] = d[1] * d[2] / d[0]
        cases |= {f"random 4x4 #{i}": M4, f"random 2x2 #{i}": M2,
                  f"rank 1 4x4 #{i}": np.outer(M4[0], M4[1]),
                  f"rank 2 4x4 #{i}": M4[:, :2] @ M4[:2],
                  f"rank 1 2x2 #{i}": np.outer(M2[0], M2[1]),
                  f"G(V, W) #{i}": matchgate.g_vw(V, W),
                  f"G(V, 2W) #{i}": matchgate.g_vw(V, 2 * W),
                  f"G(rank 1, rank 1) #{i}": matchgate.g_vw(np.outer(*V), np.outer(*W)),
                  f"exp_L #{i}": matchgate.swap_convention(matchgate.exp_L(rng.normal(size=11))),
                  f"diag matchgate #{i}": np.diag(d),
                  f"diag with a zero entry #{i}": np.diag(d * [1, 1, 0, 1]),
                  f"diag non-matchgate #{i}": np.diag(d * [1, 1, 1, -1])}
    for f in (0.5, 0.99, 1.01, 2.0):  # each rule's residual or |det| at f times its bound
        t = 1e-9 * f
        cases |= {  # the gvw rule's bound is 3 tol here, the identities' tol ||B||_F^2 = 4 tol
            f"det W - det V = 3 * {f}e-9": matchgate.g_vw(np.eye(2), np.diag([1, 1 + 3 * t])),
            f"diag gap {f}e-9": np.diag([1, 1, 1, 1 + t]),
            f"identity residual 4 * {f}e-9": np.diag([1, 1, 1, 1 + 4 * t]),
            f"u1 |det| = {f}e-9": np.diag([1e-3, t / 1e-3]),
            f"gvw |det| = {f}e-9": matchgate.g_vw(np.diag([1, t ** 0.5]), np.diag([t ** 0.5, 1]))}
    for name, B in list(cases.items()):  # every case again at both ends of the float range
        cases |= {f"{name} * 1e200": 1e200 * B, f"{name} * 1e-170": 1e-170 * B}
    return {name: np.asarray(B, dtype=complex) for name, B in cases.items()}


CLASSIFY_CASES = _classify_cases()


@pytest.mark.parametrize("name", CLASSIFY_CASES)
def test_classify_lists_exactly_the_gate_lines_that_parse(name):
    # classify and parse judge a matrix by the same class rules, at parse's default tol
    B = CLASSIFY_CASES[name]
    assert {cls for cls, line in _gate_lines(B).items() if _parses(line)} == set(classify(B))


def test_the_classify_cases_reach_both_sides_of_every_rule():
    accepted, refused = set(), set()
    for B in CLASSIFY_CASES.values():
        found = classify(B)
        accepted |= set(found)
        refused |= set(_gate_lines(B)) - set(found)
    assert accepted == refused == {"gvw", "diag", "mg12", "u1"}


@pytest.mark.parametrize("name, classes", [
    ("zero 4x4", []), ("diag(1,0,0,0)", []), ("1e-5 I (2x2)", []),
    ("G(I, diag(1,1+5e-10))", ["mg12", "gvw", "diag"]),
    ("diag(1,1,1,1+5e-10)", ["mg12", "gvw", "diag"]),
])
def test_classify_refuses_singular_matrices_and_keeps_parse_tolerance(name, classes):
    assert classify(CLASSIFY_CASES[name]) == classes


def test_parse_and_classify_let_no_numpy_warning_out():
    # the determinant of this singular mg12 matrix divides by zero inside numpy; called
    # as a library under warnings as errors, parse still refuses the gate with its
    # ParseError and classify still finds no class
    B = np.array([[0, -1e308, -1, 0.6 + 0.8j], [0.5, 0.6 + 0.8j, 0.6 + 0.8j, 1j],
                  [-1, 0.6 + 0.8j, 0, -1], [0, 0.6 + 0.8j, -1, 0.6 + 0.8j]])
    text = ("circuit n=2\nstate 0 0\ngate mg12 B=[0,-1e308,-1,0.6+0.8i;0.5,0.6+0.8i,0.6+0.8i,1i;"
            "-1,0.6+0.8i,0,-1;0,0.6+0.8i,-1,0.6+0.8i]\nmeasure 1\n")
    expected = ("line 3: mg12 gate rejected: matrix is not invertible "
                "(its determinant is not finite)", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(text) == _per_line_outcome(text) == expected
        assert classify(B) == []


def _outcome(text):
    """parse's result: the circuit and its repr, or the error text and line."""
    try:
        circ = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return circ, repr(circ)


def _per_line_outcome(text):
    """_outcome of the frozen line-by-line reference reader (tests/reference_parse.py)."""
    try:
        circ = reference_parse.parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return circ, repr(circ)


_EXTREME_ENTRIES = ["0.0", "-0.0", "0.0-0.0i", "-0.0+0.0i", "5e-324", "-5e-324i", "1e300",
                    "-1e300i"]
_FAULTS = ["gate u1 U=[1,{};0,1]".format(bad) for bad in ("x", "1..2", "1e999", "nan", "inf",
                                                           "", "1i2", "(1")] + [
    "gate u1 U=[1,0;0]", "gate u1 U=[1,0,0;0,1,0]", "gate mg12 B=[1,0;0,1]",
    "gate gvw {n} V=[1,0;0,1] W=[1,0;0,1]", "gate gvw 0 V=[1,0;0,1] W=[1,0;0,1]",
    "gate diag 1 1 [1,1,1,1]", "gate diag 1 {m} [1,1,1,1]", "gate gvw 1 V=[1,0;0,1]",
    "gate bogus 1", "gate exp a:1,1=1", "gate exp b:{m}=1", "gate exp q=1",
    "gate exp a:1,2=1 a:1,2=2", "gate exp s", "gate exp s=1/2", "gate u1 U=[1,0;0,1/2]",
    "gate u1 U=[1,0;0,1]x", "gate u1 xU=[1,0;0,1]", "gate diag 1 2 1[1,1,1,1]",
    "gate gvw 1 V=[1,0;0,1]W=[1,0;0,1] V=[1,0;0,1]W=[1,0;0,1]\ngate gvw 1 1 1",
    "frobnicate", "measure 1"] + [
    # a fault in a class read before that of a later line with a fault of its own
    "gate u1 U=[x,0;0,1]\ngate exp s=y s=1", "gate gvw 1 V=[x,0;0,1] W=[1,0;0,1]\ngate u1 U=[y]",
    "gate u1 U=[1,0;0]\ngate gvw 1 V=[x,0;0,1] W=[1,0;0,1]", "gate mg12 B=[1,0;0,1]\ngate u1 U=[1,x]",
    "gate gvw 1 V=[1,0;0] W=[1,0;0,1]\ngate u1 U=[x,0;0,1]", "gate exp s=x\ngate u1 U=[1,0;y]"]
# gates that fail a class rule, for n >= 1 and n >= 2
_RULE_FAILURES = [["gate u1 U=[1,1;1,1]"],
                  ["gate gvw 1 V=[1,0;0,1] W=[2,0;0,1]", "gate diag 1 2 [1,1,1,-1]",
                   "gate mg12 B=[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1]"]]


@st.composite
def edited_files(draw):
    """Rendered random circuits of all five classes, unitary or not, edited: V= and W=
    swapped, i written j, tabs, runs of spaces, no-break spaces, comments, extreme
    entries, and now and then one or two faulty lines at random places, each sometimes
    after a gate that fails a class rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    circ = sampling.random_circuit(n, draw(st.integers(0, 8)), rng, unitary=draw(st.booleans()),
                                   computational_input=draw(st.booleans()))
    lines = render(circ).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        edit = draw(st.sampled_from(["swap", "j", "tab", "spaces", "nbsp", "comment", "entry"]))
        if edit == "swap":
            line = re.sub(r"(V=\S+) (W=\S+)", r"\2 \1", line)
        elif edit == "j" and line.startswith("gate"):
            head, cls, rest = (line.split(" ", 2) + ["", ""])[:3]
            line = f"{head} {cls} {rest.replace('i', 'j')}"
        elif edit in ("tab", "spaces", "nbsp"):
            at = [m.start() for m in re.finditer(" ", line)]
            if at:
                j = draw(st.sampled_from(at))
                space = {"tab": "\t", "spaces": "   ", "nbsp": "\u00a0"}[edit]
                line = line[:j] + space + line[j + 1:]
        elif edit == "comment":
            line += draw(st.sampled_from([" # note", "#", "\t# [1,x;0,1]"]))
        elif edit == "entry":
            spans = [m.span() for m in re.finditer(r"(?<=[\[,;=])[^,;\[\]\s]+", line)]
            if spans and line.startswith("gate"):
                a, b = draw(st.sampled_from(spans))
                line = line[:a] + draw(st.sampled_from(_EXTREME_ENTRIES)) + line[b:]
        lines[i] = line
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        fault = [draw(st.sampled_from(_FAULTS)).format(n=n, m=2 * n + 1)]
        if draw(st.booleans()):
            fault = [draw(st.sampled_from(_RULE_FAILURES[min(n, 2) - 1]))] + fault
        at = draw(st.integers(2, len(lines) - 1))
        lines[at:at] = fault
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edited_files())
def test_batched_parse_equals_the_per_line_parse(text):
    assert _outcome(text) == _per_line_outcome(text)


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_fault_reads_as_in_the_per_line_parse(fault, n):
    gates = ["gate u1 U=[0,1;1,0]", "gate exp a:1,2=0.5 b:1=1i s=-1i"]
    for before in [[]] + [[g] for g in _RULE_FAILURES[min(n, 2) - 1]]:
        text = "\n".join([f"circuit n={n}", "state " + " ".join(["(0.6,0.0)(0.0,0.8)"] * n),
                          *gates, *before, fault.format(n=n, m=2 * n + 1), *gates, "measure 1", ""])
        assert _outcome(text) == _per_line_outcome(text)


def test_only_a_file_with_a_fault_converts_entries_one_at_a_time(rng, monkeypatch):
    # well-formed files in any form the grammar allows take one conversion per class;
    # the per-entry conversion that names a fault runs only on a file with one
    calls = []
    per_entry, per_token = circuits.parse_complex, circuits._raise_amplitude_fault
    monkeypatch.setattr(circuits, "parse_complex",
                        lambda tok, lineno=0: calls.append(tok) or per_entry(tok, lineno))
    monkeypatch.setattr(circuits, "_raise_amplitude_fault",
                        lambda nums, lineno: calls.append(lineno) or per_token(nums, lineno))
    seen = set()
    for trial in range(30):
        circ = sampling.random_circuit(1 + trial % 5, 8, rng, unitary=bool(trial % 2))
        seen.update(g.cls for g in circ.gates)
        text = re.sub(r"(V=\S+) (W=\S+)", r"\2 \1", render(circ))  # W= before V=
        head, state, *rest = text.splitlines()
        state = "state\t" + "  ".join(["0", "+", "-i"][i % 3] if i % 2 else tok
                                      for i, tok in enumerate(state.split()[1:]))
        edited = "\n".join([head + "  # a comment", state] + [
            re.sub(r"^(gate \S+ )(.*)", lambda m: m[1] + m[2].replace("i", "j"), line)
            for line in rest]) + "\n"
        assert _outcome(edited) == _per_line_outcome(edited) and not isinstance(
            _outcome(edited)[0], str)
    assert calls == [] and seen == set(circuits.GATE_CLASSES)
    text = "circuit n=2\nstate 0 +\ngate u1 U=[0,1;1,0]\ngate gvw 1 {}\nmeasure 1\n"
    swapped = parse(text.format("W=[0,1;-1,0] V=[1,0;0,1]"))
    assert calls == [] and swapped == parse(text.format("V=[1,0;0,1] W=[0,1;-1,0]"))
    with pytest.raises(ParseError, match="line 4: bad complex literal 'x'"):
        parse(text.format("W=[0,1;-1,0] V=[1,x;0,1]"))
    assert calls == ["1", "x"]  # the gvw entries, V= first, up to the bad one
    with pytest.raises(ParseError, match="line 2: bad amplitude pair 'x,0'"):
        parse("circuit n=2\nstate 0 (x,0)(1,0)\nmeasure 1\n")
    assert calls[-1] == 2
