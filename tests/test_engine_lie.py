import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from conftest import (adjoint_transfer, computational, dense_coefficients, dense_expectation,
                      dense_gate, dense_generator, exp_gate, gate_transfer, lie_terms,
                      structure_constants, terms_expectation, terms_matrix)
from mgsim import circuits, engine_lie, linalg, sampling
from mgsim.circuits import GateSpec
from mgsim.cli import main
from mgsim.engine_lie import (_apply_blocks, _c_indices, _expectation, _generator_blocks,
                              _pair_index, _propagate, dimension, element, gate_coefficients,
                              simulate)
from mgsim.engine_quadratic import simulate as simulate_quadratic
from mgsim.jw import jw
from mgsim.pauli import PauliString, ProductState, commutation_sign, pauli_mul


@pytest.mark.parametrize("n,dim", [(1, 4), (2, 11), (3, 22)])
def test_basis_dimension(n, dim):
    elements = [element(n, i) for i in range(dimension(n))]
    assert len(elements) == dim == n * (2 * n + 1) + 1
    # all elements are Hermitian units and mutually distinct
    keys = {(e.x_mask, e.z_mask) for e in elements}
    assert len(keys) == dim
    assert all(e.scalar in (1, -1) for e in elements)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_index_map_follows_the_basis_order(n):
    # identity, c_1..c_2n, then i c_mu c_nu for mu < nu in lexicographic order
    order = [()] + [(mu,) for mu in range(1, 2 * n + 1)] + [
        (mu, nu) for mu in range(1, 2 * n + 1) for nu in range(mu + 1, 2 * n + 1)]
    assert len(order) == dimension(n)
    assert [_c_indices(n, i) for i in range(dimension(n))] == order
    pairs = order[2 * n + 1:]
    assert [_pair_index(n, *pair) for pair in pairs] == list(range(2 * n + 1, len(order)))
    for i in (0, 1, 2 * n, 2 * n + 1, len(order) - 1):
        idx = _c_indices(n, i)
        ops = [jw(n, mu) for mu in idx] or [PauliString(n, 0, 0)]
        prod = ops[0] if len(ops) == 1 else pauli_mul(*ops)
        expected = PauliString(n, prod.x_mask, prod.z_mask, prod.phase_pow + len(idx) // 2)
        assert element(n, i) == expected


def test_index_map_inverts_at_the_largest_sizes():
    # the integer square root inverts the pair index exactly near the size limit too
    n = 4000
    for mu in (1, 2, 3, 1000, 2 * n - 2, 2 * n - 1):
        for nu in {mu + 1, mu + 2, (mu + 2 * n) // 2, 2 * n - 1, 2 * n} - {2 * n + 1}:
            if mu < nu <= 2 * n:
                assert _c_indices(n, _pair_index(n, mu, nu)) == (mu, nu)
    assert _pair_index(n, 2 * n - 1, 2 * n) == dimension(n) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_exact(n):
    # every commutator of basis elements is exactly a multiple of one element
    sc = structure_constants(n)
    for i in range(1, sc.dim):
        for j in range(i + 1, sc.dim):
            ei, ej = sc.elements[i], sc.elements[j]
            hit = sc.bracket(i, j)
            if commutation_sign(ei, ej) == 1:
                assert hit is None
            else:
                k, val = hit
                prod = pauli_mul(ei, ej)
                ek = sc.elements[k]
                assert (prod.x_mask, prod.z_mask) == (ek.x_mask, ek.z_mask)
                assert 2 * prod.scalar == val * ek.scalar  # exact


def test_linear_linear_lands_in_quadratics():
    sc = structure_constants(2)
    k, val = sc.bracket(1, 2)  # [c_1, c_2]
    assert k == _pair_index(2, 1, 2)
    # [c_1, c_2] = 2 c_1 c_2 = -2i (i c_1 c_2)
    assert val == -2j


def test_disjoint_quadratics_commute():
    sc = structure_constants(3)
    assert sc.bracket(_pair_index(3, 1, 2), _pair_index(3, 3, 4)) is None


def test_shared_index_quadratics():
    sc = structure_constants(2)
    k, val = sc.bracket(_pair_index(2, 1, 2), _pair_index(2, 2, 3))
    assert k == _pair_index(2, 1, 3)
    assert abs(val) == 2


def test_jacobi_sampled(rng):
    sc = structure_constants(3)
    d = sc.dim

    def ad(i, eta):
        out = np.zeros(d, dtype=complex)
        for j in np.flatnonzero(eta):
            hit = sc.bracket(i, j)
            if hit:
                out[hit[0]] += eta[j] * hit[1]
        return out

    for _ in range(100):
        i, j = (int(v) for v in rng.integers(1, d, size=2))
        ek = np.zeros(d, dtype=complex)
        ek[int(rng.integers(1, d))] = 1.0
        lhs = ad(i, ad(j, ek)) - ad(j, ad(i, ek))
        hit = sc.bracket(i, j)
        rhs = hit[1] * ad(hit[0], ek) if hit else np.zeros(d, dtype=complex)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_adjoint_transfer_identity():
    sc = structure_constants(2)
    assert np.allclose(adjoint_transfer(np.zeros(sc.dim), sc), np.eye(sc.dim))


def test_adjoint_transfer_matches_quadratic_block(rng):
    # a single quadratic generator rotates the (c_1, c_2) plane; the Lie
    # transfer must equal the inverse of the quadratic engine's K block
    g = exp_gate(a={(1, 2): complex(rng.normal(), rng.normal())})
    sc = structure_constants(2)
    a = adjoint_transfer(dense_coefficients(g, 2), sc)
    K = gate_transfer(g, 2)
    assert np.linalg.norm(a[1:3, 1:3] - np.linalg.inv(K)[1:3, 1:3]) < 1e-10


def test_adjoint_transfer_vs_dense_conjugation(rng):
    n = 3
    g = exp_gate(a={(2, 5): 0.4 - 0.2j}, b={1: 0.3j}, s=0.1)
    sc = structure_constants(n)
    a = adjoint_transfer(dense_coefficients(g, n), sc)
    G = dense_gate(g, n)
    Ginv = np.linalg.inv(G)
    for i in (1, 4, _pair_index(n, 1, 2)):
        lhs = G @ sc.elements[i].to_matrix() @ Ginv
        rhs = sum(a[k, i] * sc.elements[k].to_matrix() for k in np.flatnonzero(a[:, i]))
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_empty_circuit():
    state = computational([0, 0])
    res = simulate([], state, 1)
    assert res.p0 == 1.0


def test_matches_quadratic_engine(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        circ = sampling.random_circuit(n, int(rng.integers(0, 10)), rng,
                                       unitary=bool(rng.integers(0, 2)))
        gates = circuits.compile(circ)
        state = circ.input_state()
        a = simulate(gates, state, circ.k).expectation
        b = simulate_quadratic(gates, state, circ.k).expectation
        assert abs(a - b) < 1e-9


def test_heisenberg_observable_matches_quadratic(rng):
    from conftest import heisenberg_observable as quad_obs
    from mgsim.jw import PARITY, JwFamily

    n = 3
    circ = sampling.random_circuit(n, 5, rng)
    gates = circuits.compile(circ)
    s1 = lie_terms(_propagate(gates, circ.k, n), n)
    s2 = quad_obs(gates, circ.k, JwFamily(n, PARITY))
    assert np.linalg.norm(terms_matrix(s1, n) - terms_matrix(s2, n)) < 1e-9


def test_propagation_keeps_tiny_coefficients():
    # an eta entry far below 1e-14 is kept, not dropped
    tiny = _propagate([exp_gate(a={(1, 3): 1e-16})], 1, 2)
    assert 0 < np.abs(tiny[np.flatnonzero(tiny)]).min() < 1e-14


def _plus_between(amps, lines):
    """amps with |+>, whose <Z> is exactly 0, on the given lines."""
    amps = np.array(amps)
    amps[list(lines)] = 2 ** -0.5
    return ProductState.normalized(amps)


@pytest.mark.parametrize("n", range(1, 7))
def test_expectation_matches_dense_reference(rng, n):
    # sum eta_i <B_i> on random coefficients over the whole basis, against the dense
    # matrix of the Pauli terms; |+> lines put <Z_j> = 0 between a pair's lines
    for trial in range(6):
        eta = rng.normal(size=dimension(n)) + 1j * rng.normal(size=dimension(n))
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        state = ProductState.normalized(amps)
        if trial % 2 and n >= 3:
            state = _plus_between(state.amps, range(1, n - 1, trial // 2 + 1))
        ref = dense_expectation(state, lie_terms(eta, n))
        assert abs(_expectation(eta, state) - ref) <= 1e-12 * np.abs(eta).sum()


def test_expectation_survives_underflowing_z_products(rng):
    # <Z_j> of about 1e-16 on 38 lines: a pair's Z product falls far below 1e-300
    # and underflows to 0, where a quotient of prefix products would give nan
    n = 40
    amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    amps[1:n - 1] = [1.0, 1.0 - 2.3e-16]
    state = ProductState.normalized(amps)
    ez = state.single_line_expectations()["Z"].real
    assert 0 < np.abs(ez[1:n - 1]).min() and np.prod(np.abs(ez[1:n - 1])) < 1e-300
    eta = rng.normal(size=dimension(n)) + 1j * rng.normal(size=dimension(n))
    got = _expectation(eta, state)
    assert np.isfinite(got)
    assert abs(got - terms_expectation(state, lie_terms(eta, n))) <= 1e-12 * np.abs(eta).sum()


def _compile_specs(specs, n):
    return circuits.compile(circuits.Circuit(n, ((1.0, 0j),) * n, tuple(specs), 1, False))


def _gates_of_every_kind(rng, n):
    """Compiled random gates of every class, unitary and not, plus one exp gate
    with up to four quadratic terms and linear terms on the first and last index."""
    classes = circuits.GATE_CLASSES if n >= 2 else ("u1", "exp")
    specs = [sampling.random_gate(cls, n, rng, unitary=unitary)
             for cls in classes for unitary in (True, False)]
    gates = _compile_specs(specs, n)
    pairs = [(mu, nu) for mu in range(1, 2 * n + 1) for nu in range(mu + 1, 2 * n + 1)]
    picks = rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)
    gates.append(exp_gate(a={pairs[p]: complex(*rng.normal(size=2)) for p in picks},
                          b={1: 0.3j, 2 * n: 0.2 - 0.1j}, s=0.1))
    return gates


def _scattered_generator(xi, n):
    """The engine's closed-form blocks of M, for dense coefficients xi, scattered into
    one dense matrix."""
    dim = dimension(n)
    M = np.zeros((dim, dim), dtype=complex)
    terms = tuple(np.flatnonzero(xi).tolist())
    for idx, sign, block in _generator_blocks(terms, xi[list(terms)], n):
        assert block.shape == (idx.shape[1],) * 2  # each block has its part's own size
        for row, row_sign in zip(idx, sign):
            M[np.ix_(row, row)] += np.outer(row_sign, row_sign) * block
    return M


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_blocks_match_reference_pair_scan(rng, n):
    # term by term and for the whole gate, the blocks read off the c-support
    # equal the reference scan over all basis pairs, entry for entry
    sc = structure_constants(n)
    for g in _gates_of_every_kind(rng, n):
        xi = dense_coefficients(g, n)
        for j in np.flatnonzero(xi):
            unit = np.zeros_like(xi)
            unit[j] = 1.0
            assert np.array_equal(_scattered_generator(unit, n), dense_generator(unit, sc))
        assert np.array_equal(_scattered_generator(xi, n), dense_generator(xi, sc))


@pytest.mark.parametrize("n", range(1, 9))
def test_block_exponential_matches_dense_generator(rng, n):
    sc = structure_constants(n)
    for g in _gates_of_every_kind(rng, n):
        terms, vals = gate_coefficients(g, n)
        xi = dense_coefficients(g, n)
        ref = scipy.linalg.expm(dense_generator(xi, sc))
        eta = rng.normal(size=sc.dim) + 1j * rng.normal(size=sc.dim)
        got = eta.copy()
        _apply_blocks(got, _generator_blocks(terms, vals, n))
        assert np.linalg.norm(got - ref @ eta) <= 1e-12 * max(1.0, np.linalg.norm(ref @ eta))
        assert np.linalg.norm(adjoint_transfer(xi, sc) - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_two_line_gates_exponentiate_small_blocks(rng, monkeypatch):
    # on n = 10 the basis has 211 elements; a gate on two lines touches at most
    # four c indices, so no block of its adjoint generator exceeds 4 + 6
    n = 10
    specs = [sampling.random_gate("gvw", n, rng, unitary=False),
             sampling.random_gate("mg12", n, rng, unitary=False),
             GateSpec("diag", (3, 8), (("d", (1, 1j, 2j, -2)),)),
             GateSpec("exp", (5, 6), (("a", (((9, 12), 0.3 + 0.1j),)),
                                      ("b", ((10, 0.2j),)), ("s", 0.1j)))]
    gates = _compile_specs(specs, n)
    state = ProductState.normalized(rng.normal(size=(n, 2)) + 0j)
    shapes = []
    expm_stack = linalg.expm_stack

    def recording_expm(A):
        shapes.append(np.shape(A))
        return expm_stack(A)

    monkeypatch.setattr(linalg, "expm_stack", recording_expm)
    simulate(gates, state, 5)
    sc = structure_constants(n)
    for g in gates:
        adjoint_transfer(dense_coefficients(g, n), sc)
    assert shapes and max(max(shape[-2:]) for shape in shapes) <= 10


@pytest.mark.parametrize("count", [engine_lie._CHUNK - 1, engine_lie._CHUNK,
                                   engine_lie._CHUNK + 1])
@pytest.mark.parametrize("entries", [engine_lie._CHUNK_ENTRIES, 500])
def test_chunked_propagation_equals_gate_by_gate(count, entries, monkeypatch):
    # chunks end at _CHUNK gates or at the entry budget; each expm_stack result is
    # independent of the rest of its stack, so the chunked vector is bitwise the
    # one of exponentiating and applying each gate's blocks on its own
    n, k = 4, 2
    circ = sampling.random_circuit(n, count, np.random.default_rng(11), unitary=False)
    gates = circuits.compile(circ)
    ref = np.zeros(dimension(n), dtype=complex)
    ref[_pair_index(n, 2 * k - 1, 2 * k)] = -1.0
    for g in reversed(gates):
        terms, xi = gate_coefficients(g, n)
        _apply_blocks(ref, _generator_blocks(terms, -xi, n))
    calls = []
    expm_stack = linalg.expm_stack

    def counting(A):
        calls.append(len(A))
        return expm_stack(A)

    monkeypatch.setattr(engine_lie, "_CHUNK_ENTRIES", entries)
    monkeypatch.setattr(linalg, "expm_stack", counting)
    assert np.array_equal(_propagate(gates, k, n), ref)
    sizes = [[len(block) for _, _, block in _generator_blocks(*gate_coefficients(g, n), n)]
             for g in reversed(gates)]
    assert sum(calls) == sum(map(len, sizes))
    # one call per block size per chunk of _CHUNK gates, and more when the budget cuts
    step = engine_lie._CHUNK
    per_chunk = sum(len(set().union(*sizes[i:i + step])) for i in range(0, count, step))
    assert len(calls) > per_chunk if entries == 500 else len(calls) == per_chunk


@pytest.mark.parametrize("n", [100, 200])
def test_matches_quadratic_engine_at_large_n(rng, n):
    # the blocks come from each gate's c-support, with no table over all basis
    # pairs, so the Lie engine checks the quadratic engine at these sizes;
    # line 1 carries the mg12 and u1 gates, so every class reaches Z_1
    for unitary in (True, False):
        circ = dataclasses.replace(sampling.random_circuit(n, 120, rng, unitary=unitary), k=1)
        assert {spec.cls for spec in circ.gates} == set(circuits.GATE_CLASSES)
        state = circ.input_state()
        a = simulate(circuits.compile(circ), state, 1).expectation
        b = simulate_quadratic(circ.gates, state, 1).expectation
        assert abs(a - b) < 1e-9


def _wide_file(tmp_path, n: int, depth: int, seed: int) -> str:
    """A .mg file of a random gvw, diag and exp circuit on n lines."""
    circ = sampling.random_circuit(n, depth, np.random.default_rng(seed),
                                   classes=("gvw", "diag", "exp"))
    path = tmp_path / f"n{n}.mg"
    path.write_text(circuits.render(circ))
    return str(path)


def test_run_lie_matches_quadratic_at_n1024(tmp_path, capsys):
    path = _wide_file(tmp_path, 1024, 100, 5)
    values = {}
    for engine in ("lie", "quadratic"):
        assert main(["run", "--engine", engine, path]) == 0
        values[engine] = complex(*json.loads(capsys.readouterr().out)["expectation"])
    assert abs(values["lie"] - values["quadratic"]) < 1e-9


@pytest.mark.parametrize("command", [["run", "--engine", "lie"], ["compare"]])
def test_n_above_the_size_limit_is_one_error_line(tmp_path, capsys, command):
    limit = max(n for n in range(1, 5000) if 16 * dimension(n) <= engine_lie.MAX_ETA_BYTES)
    assert main(command + [_wide_file(tmp_path, limit + 1, 3, 6)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: Lie engine capped")
