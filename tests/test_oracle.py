import numpy as np
import pytest
import scipy.linalg

from conftest import (apply_gate, apply_matrix, compiled, computational, dense_gate, exp_entries,
                      exp_gate, terms_matrix)

from mgsim import circuits, linalg, oracle, sampling
from mgsim.engine_quadratic import simulate
from mgsim.errors import DimensionError, SizeLimitError
from mgsim.exponents import compile_diag, to_pauli_sum
from mgsim.jw import PARITY, JwFamily
from mgsim.oracle import ADJOINT, INVERSE, MAX_LINES, _split, expectation_heisenberg
from mgsim.pauli import ProductState

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_apply_matrix_single_line(rng):
    n = 3
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    out = apply_matrix(psi, X, [1], n)
    assert np.allclose(out, np.kron(X, np.eye(4)) @ psi)
    out2 = apply_matrix(psi, X, [3], n)
    assert np.allclose(out2, np.kron(np.eye(4), X) @ psi)


def test_apply_matrix_two_lines(rng):
    n = 3
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    U = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out = apply_matrix(psi, U, [1, 2], n)
    assert np.allclose(out, np.kron(U, np.eye(2)) @ psi)
    # reversed line order permutes the matrix's tensor factors
    swap = np.eye(4)[[0, 2, 1, 3]]
    out2 = apply_matrix(psi, U, [2, 1], n)
    assert np.allclose(out2, np.kron(swap @ U @ swap, np.eye(2)) @ psi)


def test_size_cap():
    with pytest.raises(SizeLimitError):
        apply_gate(np.zeros(2 ** (MAX_LINES + 1)), compiled(X), MAX_LINES + 1)


def test_dense_gate_matches_full_expm(rng):
    g = exp_gate(a={(1, 5): 0.4 - 0.1j}, b={2: 0.3j}, s=0.2)
    full = scipy.linalg.expm(terms_matrix(to_pauli_sum(exp_entries(g), JwFamily(3, PARITY)), 3))
    columns = np.column_stack([apply_gate(e, g, 3) for e in np.eye(8, dtype=complex)])
    assert np.allclose(columns, full, atol=1e-12)


def test_a_written_zero_coefficient_activates_no_line():
    text = "circuit n=4\nstate 0 0 0 0\ngate exp a:3,4=0.3 {}\nmeasure 1\n"
    (base, base_blocks), (padded, padded_blocks) = (
        _split(circuits.parse(text.format(extra)).gates.exp_entries()[0], 4)
        for extra in ("", "a:1,7=0 b:2=0"))
    assert padded[0] == base[0] == (2,)  # the active and diagonal lines
    assert np.array_equal(padded_blocks, base_blocks)


def test_apply_gate_support_restriction(rng):
    # a gate touching lines 2..3 of 4 must act identically via the local path
    g = exp_gate(a={(3, 6): 0.5}, b={4: 0.2j})
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    expect = dense_gate(g, 4) @ psi
    assert np.allclose(apply_gate(psi, g, 4), expect, atol=1e-12)
    inv = apply_gate(apply_gate(psi, g, 4), g, 4, inverse=True)
    assert np.allclose(inv, psi, atol=1e-10)


def _negated(g):
    return exp_gate({k: -v for k, v in g.param("a")}, {k: -v for k, v in g.param("b")},
                    -g.param("s"))


def _assert_matches_dense(g, n: int, rng):
    """apply_gate against the full e^A and e^-A on n lines, within 1e-12 of the larger
    of 1 and |ref|."""
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for inverse, ref_gate in ((False, g), (True, _negated(g))):
        ref = dense_gate(ref_gate, n) @ psi
        gap = np.abs(apply_gate(psi, g, n, inverse=inverse) - ref).max()
        assert gap <= 1e-12 * max(1.0, np.abs(ref).max()), (inverse, gap)


def _random_exp_gate(n: int, rng, unitary: bool):
    """Several a and b terms, always including the full-length JW pair (1, 2n)."""
    def coeff(real: bool):
        val = rng.normal(scale=0.5)
        if unitary:
            return val if real else 1j * val
        return complex(val, rng.normal(scale=0.5))

    a = {(1, 2 * n): coeff(True)}
    for _ in range(3):
        mu, nu = sorted(int(v) for v in rng.choice(np.arange(1, 2 * n + 1), size=2, replace=False))
        a[(mu, nu)] = coeff(True)
    b = {int(sigma): coeff(False) for sigma in rng.integers(1, 2 * n + 1, size=2)}
    return exp_gate(a=a, b=b, s=coeff(False))


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10])
@pytest.mark.parametrize("unitary", [True, False])
def test_apply_gate_matches_dense_gate_on_exp_gates(rng, n, unitary):
    for _ in range(1 if n == 10 else 4):
        _assert_matches_dense(_random_exp_gate(n, rng, unitary), n, rng)


@pytest.mark.parametrize("n, pair", [(10, (1, 20)), (10, (2, 19)), (8, (1, 15)), (8, (3, 4))])
def test_apply_gate_matches_dense_gate_on_long_strings(rng, n, pair):
    _assert_matches_dense(exp_gate(a={pair: 0.7 - 0.2j}, b={pair[1]: 0.3j}, s=0.1), n, rng)


@pytest.mark.parametrize("unitary", [True, False])
def test_apply_gate_matches_dense_gate_on_diag_gate(rng, unitary):
    # a diag gate is all Z strings: it has no active lines
    d = np.exp((0 if unitary else 0.4) * rng.normal(size=4) + 1j * rng.normal(size=4))
    d[3] = d[1] * d[2] / d[0]
    _assert_matches_dense(exp_gate(*compile_diag(d, 2, 5)), 6, rng)


def test_long_string_gate_exponentiates_only_its_active_lines(rng, monkeypatch):
    # exp a:1,20 on 10 lines is X or Y on lines 1 and 10 and Z on lines 2..9
    shapes = []
    expm_stack = linalg.expm_stack

    def recording_expm(A):
        shapes.append(np.shape(A))
        return expm_stack(A)

    monkeypatch.setattr(linalg, "expm_stack", recording_expm)
    g = exp_gate(a={(1, 20): 0.7})
    psi = rng.normal(size=1 << 10) + 0j
    apply_gate(psi, g, 10)
    apply_gate(psi, g, 10, inverse=True)
    state = ProductState.normalized(rng.normal(size=(10, 2)) + 0j)
    expectation_heisenberg([g, g], state, 4, INVERSE)
    assert shapes and max(max(shape[-2:]) for shape in shapes) <= 4


def test_scalar_only_gate(rng):
    g = exp_gate(s=0.3 - 0.7j)
    psi = rng.normal(size=4) + 0j
    assert np.allclose(apply_gate(psi, g, 2), np.exp(0.3 - 0.7j) * psi)
    # neither active nor diagonal lines; the zero exponent has no terms at all
    _assert_matches_dense(g, 2, rng)
    _assert_matches_dense(exp_gate(), 3, rng)


def test_run_circuit_hadamard():
    psi = apply_gate(computational([0, 0]).to_vector(), compiled(H), 2)
    assert np.allclose(psi, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0])


def test_heisenberg_modes_coincide_for_unitary(rng):
    g1 = compiled(H)
    g2 = exp_gate(a={(2, 4): float(rng.normal())}, b={5: 0.3j})
    state = ProductState.normalized(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    for k in (1, 2, 3):
        vi = expectation_heisenberg([g1, g2], state, k, INVERSE)
        va = expectation_heisenberg([g1, g2], state, k, ADJOINT)
        assert abs(vi - va) < 1e-10


def test_heisenberg_inverse_matches_manual(rng):
    g = exp_gate(a={(1, 4): 0.3 + 0.2j}, b={2: 0.1 - 0.2j})
    state = ProductState.normalized(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    G = dense_gate(g, 2)
    Z1 = np.kron(np.diag([1, -1]), np.eye(2))
    psi = state.to_vector()
    ref = np.vdot(psi, np.linalg.inv(G) @ Z1 @ G @ psi)
    assert abs(expectation_heisenberg([g], state, 1, INVERSE) - ref) < 1e-10


def test_bad_mode_and_line():
    state = computational([0])
    with pytest.raises(DimensionError):
        expectation_heisenberg([], state, 2)
    with pytest.raises(Exception):
        expectation_heisenberg([], state, 1, mode="sideways")


MATRIX_CLASSES = ("gvw", "diag", "mg12", "u1")


def _random_circuits(rng, unitary, count=30, depth=12):
    """Circuits of every class on n = 1..10, with the classes they contain."""
    out, seen = [], set()
    for t in range(count):
        circ = sampling.random_circuit(1 + t % 10, depth, rng, unitary=unitary)
        seen.update(g.cls for g in circ.gates)
        out.append(circ)
    assert seen == set(circuits.GATE_CLASSES)
    return out


@pytest.mark.parametrize("mode", [INVERSE, ADJOINT])
@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "non-unitary"])
def test_spec_route_matches_compiled_route(rng, unitary, mode):
    # matrix gates applied as B and B^-1 against the same gates re-expanded
    # from their compiled exponents
    for circ in _random_circuits(rng, unitary):
        state = circ.input_state()
        ref = expectation_heisenberg(circuits.compile(circ), state, circ.k, mode)
        got = expectation_heisenberg(circ.gates, state, circ.k, mode)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (circ.n, got, ref)


@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "non-unitary"])
def test_spec_route_matches_quadratic_engine(rng, unitary):
    for circ in _random_circuits(rng, unitary):
        state = circ.input_state()
        ref = expectation_heisenberg(circ.gates, state, circ.k, INVERSE)
        got = simulate(circ.gates, state, circ.k).expectation
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (circ.n, got, ref)


@pytest.mark.parametrize("cls", MATRIX_CLASSES)
def test_matrix_spec_kernels_match_apply_matrix(rng, cls):
    # each reshape kernel against apply_matrix with the gate's 4x4 matrix
    # (U (x) I on lines 1, 2 for u1), forward and inverse, diag lines apart included
    apart = 0
    for trial in range(20):
        n = 2 + trial % 6
        spec = sampling.random_gate(cls, n, rng, unitary=bool(trial % 2))
        lines = (1, 2) if cls == "u1" else spec.lines
        apart += lines[1] - lines[0] > 1
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        B = circuits.as_gates([spec]).matrices([0])[0]
        for inverse, matrix in ((False, B), (True, np.linalg.inv(B))):
            ref = apply_matrix(psi, matrix, lines, n)
            gap = np.abs(apply_gate(psi, spec, n, inverse=inverse) - ref).max()
            assert gap <= 1e-12 * max(1.0, np.abs(ref).max()), (n, lines, inverse, gap)
    assert cls != "diag" or apart


def test_exp_blocks_take_one_call_per_dimension(rng, monkeypatch):
    # the blocks B of all exp gates of a circuit are exponentiated before the state
    # is touched, e^B and e^-B in one expm_stack call per block dimension, or in
    # more once a call would pass _BATCH_ENTRIES; a result does not depend on the
    # rest of its stack, so the value keeps its bits
    circ = sampling.random_circuit(6, 40, rng, unitary=False)
    gates, state = circuits.compile(circ), circ.input_state()
    blocks = [_split(entries, circ.n)[1] for entries in gates.exp_entries()]
    dims = {b.shape[-1]: 0 for b in blocks}
    for b in blocks:
        dims[b.shape[-1]] += len(b)
    calls = []
    expm_stack = linalg.expm_stack

    def recording_expm(A):
        calls.append(np.shape(A))
        return expm_stack(A)

    monkeypatch.setattr(linalg, "expm_stack", recording_expm)
    value = expectation_heisenberg(gates, state, circ.k)
    assert len(dims) > 1
    assert sorted(calls) == sorted((2 * count, dim, dim) for dim, count in dims.items())
    calls.clear()
    monkeypatch.setattr(oracle, "_BATCH_ENTRIES", 64)
    assert expectation_heisenberg(gates, state, circ.k) == value
    assert all(shape[0] * shape[1] ** 2 <= 64 or shape[0] == 1 for shape in calls)
    assert len(calls) > len(dims)


def test_matrix_specs_take_no_exponential(rng, monkeypatch):
    circ = sampling.random_circuit(6, 40, rng, classes=MATRIX_CLASSES, unitary=False)
    state = circ.input_state()
    compiled = circuits.compile(circ)
    refs = {mode: expectation_heisenberg(compiled, state, circ.k, mode) for mode in (INVERSE, ADJOINT)}
    calls = []
    expm_stack = linalg.expm_stack

    def recording_expm(A):
        calls.append(np.shape(A))
        return expm_stack(A)

    monkeypatch.setattr(linalg, "expm_stack", recording_expm)
    for mode, ref in refs.items():
        got = expectation_heisenberg(circ.gates, state, circ.k, mode)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    psi = state.to_vector()
    for g in circ.gates:
        psi = apply_gate(psi, g, circ.n)
    assert calls == []


def test_spec_outside_the_register_is_refused(rng):
    spec = sampling.random_gate("gvw", 5, rng)
    with pytest.raises(DimensionError):
        apply_gate(np.zeros(1 << 3, dtype=complex), spec, 3)


def test_inverses_are_taken_once_per_circuit(rng, monkeypatch):
    # one stacked inverse for the 4x4 gvw and mg12 matrices and one for the 2x2 u1
    # matrices, whatever the number of gates; a stacked inverse is bitwise the inverse
    # of each matrix taken alone, so the values are those of per-gate inverses
    for shape, count in (((4, 4), 500), ((2, 2), 300)):
        stack = rng.normal(size=(count,) + shape) + 1j * rng.normal(size=(count,) + shape)
        inverses = np.linalg.inv(stack)
        assert all(np.array_equal(inv, np.linalg.inv(m)) for inv, m in zip(inverses, stack))
    circ = sampling.random_circuit(4, 60, rng, unitary=False)
    assert {g.cls for g in circ.gates} == set(circuits.GATE_CLASSES)
    state = circ.input_state()
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(np.shape(a)[1:]) or inv(a))
    expectation_heisenberg(circ.gates, state, circ.k, INVERSE)
    assert sorted(calls) == [(2, 2), (4, 4)]
