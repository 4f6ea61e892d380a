import numpy as np
import pytest
import scipy.linalg
from conftest import heisenberg_observable

from mgsim import circuits, engine_lie, sampling
from mgsim.engine_quadratic import _gate_block, gate_transfer, simulate
from mgsim.errors import DimensionError
from mgsim.exponents import GateExponent, compile_u1, extend_quadratic
from mgsim.jw import C0_MODES, PARITY, JwFamily
from mgsim.oracle import INVERSE, apply_gate, apply_matrix, expectation_heisenberg
from mgsim.pauli import ProductState, expectation

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])


def test_zero_exponent_transfer():
    assert np.allclose(gate_transfer(GateExponent.make(2)), np.eye(5))


def test_transfer_is_orthogonal(rng):
    # K^T = K^-1 holds for any antisymmetric exponent; complex exponents can
    # make ||K|| large, so the check is relative to ||K||^2
    for _ in range(20):
        g = GateExponent.make(3, a={(1, 4): complex(rng.normal(), rng.normal())},
                              b={2: complex(rng.normal(), rng.normal())})
        K = gate_transfer(g)
        scale = max(1.0, np.linalg.norm(K) ** 2)
        assert np.linalg.norm(K @ K.T - np.eye(7)) < 1e-9 * scale


def test_empty_circuit():
    state = ProductState.computational([0, 0, 0])
    res = simulate([], state, 2)
    assert res.p0 == 1.0 and res.p1 == 0.0
    assert res.expectation == 1.0


def test_hadamard_population():
    state = ProductState.computational([0, 0])
    res = simulate([compile_u1(H, 2)], state, 1)
    assert abs(res.p0 - 0.5) < 1e-12


def test_measured_line_bounds():
    state = ProductState.computational([0, 0])
    with pytest.raises(DimensionError):
        simulate([], state, 3)


def test_matches_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 7))
        depth = int(rng.integers(0, 12))
        circ = sampling.random_circuit(n, depth, rng, unitary=bool(rng.integers(0, 2)))
        gates = circuits.compile(circ)
        state = circ.input_state()
        ref = expectation_heisenberg(gates, state, circ.k, INVERSE)
        got = simulate(gates, state, circ.k, unitary=None).expectation
        assert abs(got - ref) < 1e-9


@pytest.mark.parametrize("mode", C0_MODES)
def test_scan_matches_pauli_sum(rng, mode):
    # the production scan against the Heisenberg observable expanded over
    # either c0 realisation and evaluated term by term
    for trial in range(10):
        n = 2 + trial % 7
        circ = sampling.random_circuit(n, 8, rng, unitary=bool(trial % 2),
                                       computational_input=bool(trial % 3 == 0))
        gates = circuits.compile(circ)
        state = circ.input_state()
        obs = heisenberg_observable(gates, circ.k, JwFamily(n, mode))
        assert abs(simulate(gates, state, circ.k).expectation - expectation(state, obs)) < 1e-10


@pytest.mark.parametrize("n", [800, 2000, 10000])
def test_large_n_is_finite(n):
    # a generic product input makes prod <Z_j> underflow; the value must stay
    # a finite, real expectation
    rng = np.random.default_rng(n)
    circ = sampling.random_circuit(n, 30, rng, classes=("gvw", "diag", "exp"))
    assert circ.unitary
    gates = circuits.compile(circ)
    res = simulate(gates, circ.input_state(), circ.k, unitary=True)
    assert np.isfinite(res.expectation) and res.p0 is not None
    assert abs(res.expectation) <= 1 + 1e-9


def test_matches_lie_engine_at_n25(rng):
    n = 25
    circ = sampling.random_circuit(n, 20, rng, unitary=False)
    gates = circuits.compile(circ)
    state = circ.input_state()
    a = simulate(gates, state, circ.k).expectation
    b = engine_lie.simulate(gates, state, circ.k).expectation
    assert abs(a - b) < 1e-9


def test_heisenberg_observable_expectation(rng):
    n = 4
    circ = sampling.random_circuit(n, 5, rng)
    gates = circuits.compile(circ)
    fam = JwFamily(n, PARITY)
    obs = heisenberg_observable(gates, circ.k, fam)
    state = circ.input_state()
    via_sum = expectation(state, obs)
    direct = simulate(gates, state, circ.k).expectation
    assert abs(via_sum - direct) < 1e-12


def _dense_reference(gates, state, k, observable):
    """<psi0| C^-1 O C |psi0> on the state vector, for O = Z_k, X_1 or Y_1."""
    if observable == "Z":
        return expectation_heisenberg(gates, state, k, INVERSE)
    n = state.n
    psi = state.to_vector()
    for g in gates:
        psi = apply_gate(psi, g, n)
    v = apply_matrix(psi, X if observable == "X1" else Y, [1], n)
    for g in reversed(gates):
        v = apply_gate(v, g, n, inverse=True)
    return complex(np.vdot(state.to_vector(), v))


def test_x1_y1_observables(rng):
    n = 3
    circ = sampling.random_circuit(n, 4, rng)
    gates = circuits.compile(circ)
    state = circ.input_state()
    for obs in ("X1", "Y1"):
        ref = _dense_reference(gates, state, 1, obs)
        got = simulate(gates, state, 1, observable=obs).expectation
        assert abs(got - ref) < 1e-9


def test_populations_only_when_real():
    # a gate with complex scalar leaves the expectation real (scalar cancels
    # under inverse conjugation), but a genuinely complex value must not
    # populate p0/p1
    state = ProductState.normalized([[1, 1j]])
    g = GateExponent.make(1, b={1: 0.5})  # non-unitary
    res = simulate([g], state, 1)
    if abs(res.expectation.imag) > 1e-9:
        assert res.p0 is None and res.p1 is None


@pytest.mark.parametrize("cls", ["gvw", "diag", "mg12", "u1"])
def test_matrix_block_matches_compiled_transfer(rng, cls):
    # the block read off the gate matrix against exp(-4 atilde) of the
    # compiled exponent; the log route's round-off grows with the transfer, so
    # the gap is taken relative to max(1, max |K|)
    apart = 0
    for trial in range(40):
        n = 2 + trial % 5
        circ = sampling.random_circuit(n, 1, rng, classes=(cls,), unitary=bool(trial % 2))
        spec = circ.gates[0]
        apart += spec.cls == "diag" and spec.lines[1] > spec.lines[0] + 1
        K = np.eye(2 * n + 1, dtype=complex)
        idx, block = _gate_block(spec, n)
        K[np.ix_(idx, idx)] = block
        ref = gate_transfer(circuits.compile(circ)[0])
        assert np.abs(K - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    assert cls != "diag" or apart > 0  # non-adjacent diag lines are covered


def test_spec_gates_match_compiled_gates_and_oracle(rng):
    for trial in range(24):
        n = 1 + trial % 8
        circ = sampling.random_circuit(n, int(rng.integers(1, 10)), rng,
                                       unitary=bool(trial % 3))
        gates = circuits.compile(circ)
        state = circ.input_state()
        for obs in ("Z", "X1", "Y1"):
            got = simulate(circ.gates, state, circ.k, observable=obs).expectation
            via_exponents = simulate(gates, state, circ.k, observable=obs).expectation
            assert abs(got - via_exponents) < 1e-10
            assert abs(got - _dense_reference(gates, state, circ.k, obs)) < 1e-10


def test_spec_outside_the_register_is_refused():
    spec = circuits.GateSpec("diag", (1, 3), (("d", (1, 1j, 1j, -1)),))
    with pytest.raises(DimensionError):
        simulate([spec], ProductState.computational([0, 0]), 1)


def test_gvw_specs_take_no_determinant(rng, monkeypatch):
    # parse already checked det V = det W, so reading G(V, W) off a parsed
    # spec computes neither determinant, in this engine or in the oracle
    circ = sampling.random_circuit(4, 20, rng, classes=("gvw",), unitary=False)
    state = circ.input_state()
    calls = []
    det = np.linalg.det

    def counting_det(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    simulate(circ.gates, state, circ.k)
    expectation_heisenberg(circ.gates, state, circ.k, INVERSE)
    assert calls == []


def _random_unitary_exponent(n: int, rng):
    """Up to six real quadratic terms and up to three imaginary linear ones on n lines."""
    pairs = [(mu, nu) for mu in range(1, 2 * n + 1) for nu in range(mu + 1, 2 * n + 1)]
    picks = rng.choice(len(pairs), size=min(len(pairs), int(rng.integers(1, 7))), replace=False)
    a = {pairs[p]: float(rng.normal()) for p in picks}
    b = {int(sigma): 1j * float(rng.normal()) for sigma in rng.integers(1, 2 * n + 1, size=3)
         if rng.random() < 0.5}
    return GateExponent.make(n, a, b, 0.3j)


def test_unitary_exp_blocks_take_eigh_and_match_expm(rng, monkeypatch):
    # a real a and an imaginary b make X = -4 atilde exactly real antisymmetric,
    # and such blocks are exponentiated through eigh, without scipy
    gates = [_random_unitary_exponent(1 + trial % 7, rng) for trial in range(200)]
    refs = []
    for g in gates:
        eq = extend_quadratic(g)
        refs.append(scipy.linalg.expm(-4.0 * eq.block(eq.support())))

    def forbidden(*args, **kwargs):
        raise AssertionError("a unitary exp block must not reach scipy's expm")

    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    for g, ref in zip(gates, refs):
        idx, block = _gate_block(g, g.n)
        assert block.dtype == np.float64
        assert np.abs(block - ref).max() <= 1e-13
        assert np.abs(block.T @ block - np.eye(len(idx))).max() <= 1e-13


def test_non_unitary_exp_gate_takes_expm_and_matches_oracle(rng, monkeypatch):
    n = 4
    spec = circuits.GateSpec("exp", (1, 2, 3), (("a", (((1, 4), 0.6 + 0.3j), ((2, 5), -0.4))),
                                               ("b", ((3, 0.2 + 0.5j),)), ("s", 0.1j)))
    gates = [sampling.random_gate("gvw", n, rng), spec, sampling.random_gate("exp", n, rng)]
    state = sampling.random_state(n, rng)
    refs = {k: expectation_heisenberg(gates, state, k, INVERSE) for k in range(1, n + 1)}
    calls = []
    expm = scipy.linalg.expm

    def counting_expm(A):
        calls.append(np.shape(A))
        return expm(A)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    for k, ref in refs.items():
        got = simulate(gates, state, k).expectation
        assert abs(got - ref) < 1e-10
    # only the non-unitary exp gate reaches expm, once per simulation
    assert calls == [(6, 6)] * n
