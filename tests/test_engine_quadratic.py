import numpy as np
import pytest

from mgsim import circuits, engine_lie, sampling
from mgsim.engine_quadratic import gate_transfer, heisenberg_observable, simulate
from mgsim.errors import DimensionError
from mgsim.exponents import compile_u1, raw_exponent
from mgsim.jw import C0_MODES, PARITY, JwFamily
from mgsim.oracle import INVERSE, expectation_heisenberg
from mgsim.pauli import ProductState, expectation

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_zero_exponent_transfer():
    assert np.allclose(gate_transfer(raw_exponent(2)), np.eye(5))


def test_transfer_is_orthogonal(rng):
    # K^T = K^-1 holds for any antisymmetric exponent; complex exponents can
    # make ||K|| large, so the check is relative to ||K||^2
    for _ in range(20):
        g = raw_exponent(3, a={(1, 4): complex(rng.normal(), rng.normal())},
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


def test_x1_y1_observables(rng):
    from mgsim.oracle import apply_gate, apply_matrix

    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]])
    n = 3
    circ = sampling.random_circuit(n, 4, rng)
    gates = circuits.compile(circ)
    state = circ.input_state()
    psi = state.to_vector()
    for g in gates:
        psi = apply_gate(psi, g, n)
    for obs, mat in (("X1", X), ("Y1", Y)):
        v = apply_matrix(psi, mat, [1], n)
        for g in reversed(gates):
            v = apply_gate(v, g, n, inverse=True)
        ref = complex(np.vdot(state.to_vector(), v))
        got = simulate(gates, state, 1, observable=obs).expectation
        assert abs(got - ref) < 1e-9


def test_populations_only_when_real():
    # a gate with complex scalar leaves the expectation real (scalar cancels
    # under inverse conjugation), but a genuinely complex value must not
    # populate p0/p1
    state = ProductState.normalized([[1, 1j]])
    g = raw_exponent(1, b={1: 0.5})  # non-unitary
    res = simulate([g], state, 1)
    if abs(res.expectation.imag) > 1e-9:
        assert res.p0 is None and res.p1 is None
