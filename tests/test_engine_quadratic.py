import contextlib
import dataclasses
import io

import numpy as np
import pytest
import scipy.linalg
from conftest import (computational, exp_block_generator, exp_gate, gate_blocks, gate_transfer,
                      heisenberg_observable, reference_gate_block)

from mgsim import circuits, engine_lie, engine_quadratic, linalg, sampling
from mgsim.cli import main
from mgsim.engine_quadratic import _CHUNK, _propagate_columns, simulate
from mgsim.errors import DimensionError
from mgsim.exponents import compile_u1
from mgsim.jw import C0_MODES, PARITY, JwFamily
from mgsim.oracle import INVERSE, expectation_heisenberg
from mgsim.pauli import ProductState, expectation

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_zero_exponent_transfer():
    assert np.allclose(gate_transfer(exp_gate(), 2), np.eye(5))


def test_transfer_is_orthogonal(rng):
    # K^T = K^-1 holds for any antisymmetric exponent; complex exponents can
    # make ||K|| large, so the check is relative to ||K||^2
    for _ in range(20):
        g = exp_gate(a={(1, 4): complex(rng.normal(), rng.normal())},
                     b={2: complex(rng.normal(), rng.normal())})
        K = gate_transfer(g, 3)
        scale = max(1.0, np.linalg.norm(K) ** 2)
        assert np.linalg.norm(K @ K.T - np.eye(7)) < 1e-9 * scale


def test_empty_circuit():
    state = computational([0, 0, 0])
    res = simulate([], state, 2)
    assert res.p0 == 1.0 and res.p1 == 0.0
    assert res.expectation == 1.0


def test_hadamard_population():
    state = computational([0, 0])
    res = simulate([exp_gate(*compile_u1(H))], state, 1)
    assert abs(res.p0 - 0.5) < 1e-12


def test_measured_line_bounds():
    state = computational([0, 0])
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


def test_populations_only_when_real():
    # a gate with complex scalar leaves the expectation real (scalar cancels
    # under inverse conjugation), but a genuinely complex value must not
    # populate p0/p1
    state = ProductState.normalized([[1, 1j]])
    g = exp_gate(b={1: 0.5})  # non-unitary
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
        K = gate_transfer(spec, n)
        ref = gate_transfer(circuits.compile(circ)[0], n)
        assert np.abs(K - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    assert cls != "diag" or apart > 0  # non-adjacent diag lines are covered


def test_spec_gates_match_compiled_gates_and_oracle(rng):
    for trial in range(24):
        n = 1 + trial % 8
        circ = sampling.random_circuit(n, int(rng.integers(1, 10)), rng,
                                       unitary=bool(trial % 3))
        gates = circuits.compile(circ)
        state = circ.input_state()
        got = simulate(circ.gates, state, circ.k).expectation
        via_exponents = simulate(gates, state, circ.k).expectation
        assert abs(got - via_exponents) < 1e-10
        assert abs(got - expectation_heisenberg(gates, state, circ.k, INVERSE)) < 1e-10


def test_spec_outside_the_register_is_refused():
    spec = circuits.GateSpec("diag", (1, 3), (("d", (1, 1j, 1j, -1)),))
    with pytest.raises(DimensionError):
        simulate([spec], computational([0, 0]), 1)


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
    return exp_gate(a, b, 0.3j)


def test_unitary_exp_blocks_take_eigh_and_match_expm(rng, monkeypatch):
    # a real a and an imaginary b make X = -4 atilde exactly real antisymmetric,
    # and such blocks are exponentiated through eigh, without expm_stack
    sizes = [1 + trial % 7 for trial in range(200)]
    gates = [_random_unitary_exponent(n, rng) for n in sizes]
    refs = []
    for g, n in zip(gates, sizes):
        idx, X = exp_block_generator(g, n)
        refs.append((idx, scipy.linalg.expm(X)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a unitary exp block must not reach expm_stack")

    monkeypatch.setattr(linalg, "expm_stack", forbidden)
    blocks = {n: iter(gate_blocks([g for g, m in zip(gates, sizes) if m == n], n))
              for n in range(1, 8)}
    for n, (ref_idx, ref) in zip(sizes, refs):
        idx, block = next(blocks[n])
        assert idx == ref_idx and block.dtype == np.float64
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
    expm_stack = linalg.expm_stack

    def counting_expm(A):
        calls.append(np.shape(A))
        return expm_stack(A)

    monkeypatch.setattr(linalg, "expm_stack", counting_expm)
    for k, ref in refs.items():
        got = simulate(gates, state, k).expectation
        assert abs(got - ref) < 1e-10
    # only the non-unitary exp gate reaches expm_stack, once per simulation
    assert calls == [(1, 6, 6)] * n


def _exp_block_size(g) -> int:
    """The size of an exp gate's block: its nonzero a and b indices, and d_0 with b."""
    a = [pair for pair, val in g.param("a") if val != 0]
    b = [sigma for sigma, val in g.param("b") if val != 0]
    return len({mu for pair in a for mu in pair} | set(b) | ({0} if b else set()))


def test_run_batches_its_numpy_calls(tmp_path, monkeypatch):
    # one `run` over three chunks of all five classes: parse takes one stacked det per
    # class that has one, and the engine one stacked inverse per chunk and one eigh
    # per exp block size in a chunk, never one call per gate
    circ = sampling.random_circuit(6, 2 * _CHUNK + 40, np.random.default_rng(9))
    assert {g.cls for g in circ.gates} == set(circuits.GATE_CLASSES) and circ.unitary
    path = tmp_path / "three_chunks.mg"
    path.write_text(circuits.render(circ))
    chunks = [circ.gates[i:i + _CHUNK] for i in range(0, len(circ.gates), _CHUNK)]
    sizes = sum(len({_exp_block_size(g) for g in chunk if g.cls == "exp"}) for chunk in chunks)
    calls = {"det": 0, "inv": 0, "eigh": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path)]) == 0
    # det: one each for gvw (V and W stacked together), mg12 and u1
    assert calls == {"det": 3, "inv": len(chunks), "eigh": sizes}


@pytest.mark.parametrize("n", [2, 50])
@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_batched_blocks_match_the_per_gate_reference(n, count):
    # every class, unitary and not, in one list: exp blocks of one size that are
    # real and that are not share a batch; so do parsed and compiled gates
    rng = np.random.default_rng(count * n)
    classes = [c for c in circuits.GATE_CLASSES if n >= 2 or c in ("u1", "exp")]
    gates = [sampling.random_gate(classes[i % len(classes)], n, rng, unitary=bool(i % 3))
             for i in range(count - 5)]
    gates += circuits.compile(circuits.Circuit(n, ((1.0, 0j),) * n, tuple(gates[:5]), 1, False))
    exp = [g for g in gates if g.cls == "exp"]
    sizes = {unitary: {_exp_block_size(g) for g in exp if circuits._gates_are_unitary([g], 0)
                       == unitary} for unitary in (True, False)}
    assert sizes[True] & sizes[False]
    refs = [reference_gate_block(g) for g in gates]
    blocks = gate_blocks(gates, n)
    assert len(blocks) == len(refs) == count
    for (idx, block), (ref_idx, ref) in zip(blocks, refs):
        assert idx == ref_idx
        assert np.abs(block - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
    # the chunked propagation against the reference blocks applied gate by gate
    cols = np.zeros((2 * n + 1, 2), dtype=complex)
    cols[1, 0] = cols[2, 1] = 1.0
    for idx, ref in reversed(refs):
        cols[idx] = ref @ cols[idx]
    got = _propagate_columns(gates, n, 1, 2)
    assert np.abs(got - cols).max() <= 1e-12 * max(1.0, np.abs(cols).max())


def _reference_columns(gates, n: int, mu: int, nu: int) -> np.ndarray:
    """Columns mu and nu of K_1 ... K_G, with every gate's reference block applied in turn."""
    cols = np.zeros((2 * n + 1, 2), dtype=complex)
    cols[mu, 0] = cols[nu, 1] = 1.0
    for idx, block in reversed([reference_gate_block(g) for g in gates]):
        cols[idx] = block @ cols[idx]
    return cols


def _count_built_gates(monkeypatch) -> list[int]:
    """The number of gates each call of the engine's block builder receives."""
    built = []
    blocks = engine_quadratic._blocks

    def counting(read):
        built.append(len(read))
        return blocks(read)

    monkeypatch.setattr(engine_quadratic, "_blocks", counting)
    return built


def _gates_off_lines(lines, count: int, n: int, rng, classes=circuits.GATE_CLASSES) -> list:
    """Random gates of the given classes, unitary and not, none of them on the given lines."""
    gates = []
    while len(gates) < count:
        g = sampling.random_gate(classes[len(gates) % len(classes)], n, rng,
                                 unitary=bool(len(gates) % 2), strength=2.0 / count)
        if not set(g.lines) & set(lines):
            gates.append(g)
    return gates


@pytest.mark.parametrize("unitary", [True, False])
@pytest.mark.parametrize("n", [2, 40, 300])
def test_pruned_columns_equal_the_full_propagation(n, unitary, monkeypatch):
    # all five classes, and exp gates with and without b, over more than one chunk:
    # for each measured line tried, the columns built from the gates that reach Z_k
    # are exactly those of every gate's reference block applied in turn
    rng = np.random.default_rng(n + unitary)
    count = _CHUNK + 60
    gates = [sampling.random_gate(circuits.GATE_CLASSES[i % 5], n, rng, unitary, 2.0 / count)
             for i in range(count)]
    for i in range(3, count, 7):  # exp gates without b
        mu, nu = sorted(int(v) for v in rng.choice(np.arange(1, 2 * n + 1), 2, replace=False))
        gates[i] = exp_gate(a={(mu, nu): complex(rng.normal(), 0 if unitary else rng.normal())})
    built = _count_built_gates(monkeypatch)
    for k in sorted({1, (n + 1) // 2, n}):
        mu, nu = 2 * k - 1, 2 * k
        assert np.array_equal(_propagate_columns(gates, n, mu, nu),
                              _reference_columns(gates, n, mu, nu))
    assert n < 300 or sum(built) < 3 * count  # some gates were skipped


def test_a_cone_that_stays_on_one_line(monkeypatch):
    # Z rotations on line k commute with Z_k, and every other gate acts on other
    # lines: only the rotations are built, and the value is the input's <Z_k>
    n, k = 300, 150
    rng = np.random.default_rng(3)
    gates = _gates_off_lines([k], 270, n, rng)
    for i in range(30):
        rotation = complex(rng.normal(), 0.1 * rng.normal())  # non-unitary, and kept O(1)
        gates.insert(10 * i, exp_gate(a={(2 * k - 1, 2 * k): rotation}))
    state = sampling.random_state(n, rng)
    built = _count_built_gates(monkeypatch)
    cols = _propagate_columns(gates, n, 2 * k - 1, 2 * k)
    assert built == [30]
    assert np.array_equal(cols, _reference_columns(gates, n, 2 * k - 1, 2 * k))
    assert np.flatnonzero(cols.any(axis=1)).tolist() == [2 * k - 1, 2 * k]
    res = simulate(gates, state, k)
    assert abs(res.expectation - state.single_line_expectations()["Z"][k - 1]) < 1e-12


def test_the_scan_covers_the_lines_the_columns_reach():
    # a cone in the middle of a wide register, without and with d_0 (reached
    # through an exp gate's b): the value against the Heisenberg observable
    # expanded term by term
    n, k = 300, 150
    rng = np.random.default_rng(4)
    state = sampling.random_state(n, rng)
    for b in ({}, {2 * k + 3: 0.4j}):
        gates = [dataclasses.replace(sampling.random_gate("gvw", n, rng), lines=(q, q + 1))
                 for q in (k - 3, k + 2, k - 1, k, k + 1)]
        gates.append(exp_gate(a={(2 * k - 1, 2 * k + 2): 0.7}, b=b))
        obs = heisenberg_observable(gates, k, JwFamily(n, PARITY))
        assert abs(simulate(gates, state, k).expectation - expectation(state, obs)) < 1e-12


def test_gates_far_from_the_measured_line_build_no_block(monkeypatch):
    # 300 gates, unitary and not, on lines 3..40 never reach Z_1: no inverse, eigh
    # or exponential is taken, and the value is the input's <Z_1>
    n = 40
    rng = np.random.default_rng(5)
    gates = _gates_off_lines([1, 2], 300, n, rng, classes=("gvw", "diag", "exp"))
    assert {g.cls for g in gates} == {"gvw", "diag", "exp"}
    state = sampling.random_state(n, rng)
    calls = []
    for module, name in ((np.linalg, "inv"), (np.linalg, "eigh"), (linalg, "expm_stack")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    res = simulate(gates, state, 1)
    assert calls == []
    assert abs(res.expectation - state.single_line_expectations()["Z"][0]) < 1e-15


@pytest.mark.parametrize("bad", [
    circuits.GateSpec("gvw", (3, 4), (("V", ((1, 0), (0, 1))), ("W", ((1, 0), (0, 1))))),
    exp_gate(a={(5, 7): 0.3}),
    # lines that understate the support: only the d index is out of range
    circuits.GateSpec("exp", (3,), (("a", (((5, 7), 0.3 + 0j),)), ("b", ()), ("s", 0j))),
], ids=["gvw-line", "exp-line", "exp-index"])
def test_a_gate_outside_the_cone_is_still_checked(bad, rng):
    # the bad gate acts on lines 3 and 4 of n=3 and comes first, so the walk from
    # Z_1 reaches it last, after gates that keep the cone on lines 1 and 2
    gates = [bad, sampling.random_gate("mg12", 3, rng), sampling.random_gate("u1", 3, rng),
             exp_gate(a={(1, 4): 0.2}, b={2: 0.1j})]
    with pytest.raises(DimensionError):
        simulate(gates, computational([0, 1, 0]), 1)
