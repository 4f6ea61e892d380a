import itertools

import numpy as np
import pytest
import scipy.linalg
from conftest import (compiled, dense_gate, exp_block_generator, exp_gate, is_unitary_exponent,
                      terms_matrix)

from mgsim import circuits, sampling
from mgsim import matchgate as mg
from mgsim.errors import GateClassError
from mgsim.exponents import compile_diag, to_pauli_sum
from mgsim.jw import C0_MODES, PARITY, JwFamily
from mgsim.pauli import pauli_mul
from mgsim.sampling import random_su2

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_extended_quadratic_reproduces_pauli_sum(rng):
    # the d-extension: A = sum 2 a c_mu c_nu + sum b c_sigma + s equals
    # sum_{mu<nu} 2 atilde_{mu,nu} d_mu d_nu + s, with atilde = -X/4 read off the
    # quadratic engine's block, which takes d_0 only when there are linear terms
    for trial in range(12):
        n = 2 + trial % 3
        c = lambda: complex(rng.normal(), rng.normal())
        g = exp_gate(a={(1, 2 * n): c(), (2, 3): c()}, b={n: c()} if trial % 2 else {}, s=c())
        idx, X = exp_block_generator(g, n)
        atilde = -X / 4
        assert (0 in idx) == bool(g.param("b")) and np.array_equal(atilde, -atilde.T)
        for mode in C0_MODES:
            fam = JwFamily(n, mode)
            out = g.param("s") * np.eye(1 << fam.lines)
            for p, q in itertools.combinations(range(len(idx)), 2):
                out += 2 * atilde[p, q] * pauli_mul(fam.d(idx[p]), fam.d(idx[q])).to_matrix()
            ref = terms_matrix(to_pauli_sum(g, fam), fam.lines)
            assert np.abs(out - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_to_pauli_sum_dense(rng):
    g = exp_gate(a={(2, 5): 0.3 + 0.1j}, b={1: -0.2j, 6: 0.4}, s=0.25j)
    fam = JwFamily(3, PARITY)
    A = terms_matrix(to_pauli_sum(g, fam), fam.lines)
    ref = np.zeros((8, 8), dtype=complex)
    for (mu, nu), val in g.param("a"):
        ref += 2 * val * pauli_mul(fam.c(mu), fam.c(nu)).to_matrix()
    for sigma, val in g.param("b"):
        ref += val * fam.c(sigma).to_matrix()
    ref += g.param("s") * np.eye(8)
    assert np.allclose(A, ref, atol=1e-13)


def test_to_pauli_sum_has_one_term_per_nonzero_coefficient(rng):
    for trial in range(24):
        n = 1 + trial % 4
        pick = lambda: complex(rng.normal(), rng.normal()) if rng.random() < 0.6 else 0j
        a = {pair: pick() for pair in itertools.combinations(range(1, 2 * n + 1), 2)}
        b = {sigma: pick() for sigma in range(1, 2 * n + 1)}
        g = circuits.exp_spec(a, b, pick())  # written zeros kept, as parse keeps them
        coeffs = [2 * v for v in a.values()] + list(b.values()) + [g.param("s")]
        for mode in C0_MODES:
            terms = to_pauli_sum(g, JwFamily(n, mode))
            assert [abs(v) for v in terms.values()] == [abs(v) for v in coeffs if v != 0]


def test_a_tiny_coefficient_keeps_its_term():
    circ = circuits.parse("circuit n=2\nstate 0 0\ngate exp a:1,2=4e-15\nmeasure 1\n")
    # c_1 c_2 = i Z_1
    assert to_pauli_sum(circ.gates[0], JwFamily(2, PARITY)) == {(0, 1): 8e-15j}


def _is_zero(g) -> bool:
    return g.param("a") == () and g.param("b") == () and g.param("s") == 0


def test_compile_gvw_identity():
    assert _is_zero(compiled(mg.g_vw(np.eye(2), np.eye(2))))


def test_compile_gvw_phase_gate():
    alpha = 1.1
    P = np.diag([np.exp(1j * alpha), 1.0])  # phase on line k only
    # P_alpha (x) I as a G(V, W): V = diag(e^{ia}, 1), W = diag(e^{ia}, 1)
    V = np.diag([np.exp(1j * alpha), 1.0])
    W = np.diag([np.exp(1j * alpha), 1.0])
    g = compiled(mg.g_vw(V, W))
    assert g.param("b") == ()
    assert [pair for pair, _ in g.param("a")] == [(1, 2)] and abs(g.param("s")) > 0
    assert np.linalg.norm(dense_gate(g, 2) - np.kron(P, np.eye(2))) < 1e-9


def test_compile_gvw_dense(rng):
    for _ in range(20):
        V, W = random_su2(rng), random_su2(rng)
        B = mg.g_vw(V, W)
        g = compiled(B, 2)
        assert np.linalg.norm(dense_gate(g, 3) - np.kron(np.eye(2), B)) < 1e-9
        assert is_unitary_exponent(g)


def test_compile_mg12_identity_and_linear():
    assert _is_zero(compiled(np.eye(4)))
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    B = scipy.linalg.expm(np.kron(X, np.eye(2)))  # exp(c_1)
    g = compiled(B)
    assert g.param("a") == ()
    [(sigma, val)] = g.param("b")
    assert sigma == 1 and abs(val - 1.0) < 1e-9
    # on lines (2, 3) the same local X is not c_3, which carries Z on line 1
    with pytest.raises(GateClassError, match="linear coefficient"):
        compiled(B, 2)


def test_compile_mg12_random(rng):
    for _ in range(30):
        Bt = mg.exp_L(0.4 * (rng.normal(size=11) + 1j * rng.normal(size=11)))
        B = mg.swap_convention(Bt)
        g = compiled(B)
        assert np.linalg.norm(dense_gate(g, 3) - np.kron(B, np.eye(2))) < 1e-9


def test_compile_diag():
    assert _is_zero(exp_gate(*compile_diag(np.ones(4), 1, 2)))


def test_compile_diag_dense(rng):
    for _ in range(20):
        d = rng.normal(size=4) + 1j * rng.normal(size=4)
        d[3] = d[1] * d[2] / d[0]
        k, l = 1, 3
        g = exp_gate(*compile_diag(d, k, l))
        ref = np.zeros((8, 8), dtype=complex)
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    i = 4 * b1 + 2 * b2 + b3
                    ref[i, i] = d[2 * b1 + b3]
        assert np.linalg.norm(dense_gate(g, 3) - ref) < 1e-9


def test_compile_u1():
    assert _is_zero(compiled(np.eye(2)))
    g = compiled(H)
    assert np.linalg.norm(dense_gate(g, 2) - np.kron(H, np.eye(2))) < 1e-10


def test_unitary_flag():
    # parse's exp rule: e^A is unitary up to a phase when a is real and b and s are imaginary
    def unitary(terms):
        return circuits.parse(f"circuit n=1\nstate 0\ngate exp {terms}\nmeasure 1\n").unitary

    assert is_unitary_exponent(compiled(H))
    assert not unitary("a:1,2=1i")
    assert not unitary("b:1=0.5")
    assert unitary("a:1,2=0.5 b:1=0.3i s=0.2i")


def _compile_specs(specs, n):
    return circuits.compile(circuits.Circuit(n, ((1.0, 0j),) * n, tuple(specs), 1, False))


def _coefficient_gap(g, h):
    gap = abs(g.param("s") - h.param("s"))
    for name in "ab":
        mine, theirs = dict(g.param(name)), dict(h.param(name))
        gap = max([gap] + [abs(mine.get(key, 0) - theirs.get(key, 0))
                           for key in set(mine) | set(theirs)])
    return gap


@pytest.mark.parametrize("unitary", [True, False], ids=["unitary", "non-unitary"])
@pytest.mark.parametrize("cls", ["gvw", "mg12", "u1"])
def test_diagonalizable_gates_compile_without_logm(rng, monkeypatch, cls, unitary):
    specs = [sampling.random_gate(cls, 2, rng, unitary=unitary) for _ in range(20)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a diagonalizable gate must take its log in its eigenbasis")

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "logm", forbidden)
        eigen = _compile_specs(specs, 2)
    # an eigenbasis bound of 0 sends every principal log through logm
    monkeypatch.setattr(mg, "_EIGEN_COND", 0.0)
    reference = _compile_specs(specs, 2)
    for spec, g, h in zip(specs, eigen, reference):
        B = circuits.gate_matrices([spec])[0]  # on n = 2 the gate's matrix is the register's
        assert np.linalg.norm(dense_gate(g, 2) - B) <= 1e-12 * max(1.0, np.linalg.norm(B))
        assert _coefficient_gap(g, h) <= 1e-12


def _counting(patch, calls, *functions):
    """Record (name, argument shape) of each call of the given (module, name) functions."""
    for module, name in functions:
        def counting(A, _name=name, _fn=getattr(module, name)):
            calls.append((_name, np.shape(A)))
            return _fn(A)
        patch.setattr(module, name, counting)


def test_defective_gates_compile_through_logm(monkeypatch):
    # a defective gate has no eigenbasis: its row of the class stack, and only it,
    # takes logm, and nothing takes a second eig
    J = np.array([[1, 1], [0, 1]], dtype=complex)  # unipotent
    specs = [circuits.GateSpec("gvw", (1, 2), (("V", J), ("W", J))),
             circuits.GateSpec("u1", (1,), (("U", J),)),
             circuits.GateSpec("u1", (1,), (("U", H),)),
             circuits.GateSpec("mg12", (1, 2), (("B", np.eye(4)),))]
    calls = []
    with monkeypatch.context() as patch:
        _counting(patch, calls, (np.linalg, "eig"), (scipy.linalg, "logm"))
        g, u, _, _ = _compile_specs(specs, 2)
    assert calls == [("eig", (2, 4, 4)), ("logm", (4, 4)), ("eig", (2, 2, 2)), ("logm", (2, 2))]
    assert np.linalg.norm(dense_gate(g, 2) - mg.g_vw(J, J)) <= 1e-12
    assert np.linalg.norm(dense_gate(u, 2) - np.kron(J, np.eye(2))) <= 1e-12


# G(V, W) with det V = det W = e^{6i}, whose principal logs differ in trace by
# 2 pi i: the principal log of the gate misses the span, and a shifted branch lies in it
_BRANCH_SHIFT = circuits.GateSpec("gvw", (1, 2), (
    ("V", ((np.exp(3j), 0), (0, np.exp(3j)))), ("W", ((np.exp(3.5j), 0), (0, np.exp(2.5j))))))


def _log_operand(spec):
    """The matrix whose logarithm compile takes for a gvw, mg12 or u1 spec: the 4x4 in
    the tilde convention, or U."""
    if spec.cls == "u1":
        return np.array(spec.param("U"), dtype=complex)
    return mg.swap_convention(circuits.gate_matrices([spec])[0])


def test_compile_takes_one_eigendecomposition_per_class_stack(rng, monkeypatch):
    # compile takes the logs of the gvw and mg12 gates from one eig of their 4x4
    # stack and those of the u1 gates from one eig of their 2x2 stack; the rows
    # whose cond(V) passes 1e4 (the nearly defective gates, cond(V) about 2e6), and
    # only they, take logm, and a branch shift reuses the stack's eigenbasis.  A
    # gate's coefficients do not depend on the rest of its stack: compiling it
    # alone gives them bit for bit
    L, _ = mg.principal_logs(_log_operand(_BRANCH_SHIFT)[None])
    assert mg._project_to_span(L)[1][0] > 1  # the principal log misses the span
    shifted = _compile_specs([_BRANCH_SHIFT], 2)[0]
    assert np.linalg.norm(dense_gate(shifted, 2) - mg.g_vw(*(
        _BRANCH_SHIFT.param(name) for name in "VW"))) <= 1e-12
    n = 5
    J = ((1, 1), (0, 1.000001))
    special = [circuits.GateSpec("gvw", (3, 4), (("V", J), ("W", J))),
               circuits.GateSpec("u1", (1,), (("U", J),)), _BRANCH_SHIFT]
    for unitary in (True, False):
        specs = [sampling.random_gate(cls, n, rng, unitary=unitary)
                 for cls in circuits.GATE_CLASSES for _ in range(8)] + special
        specs = [specs[i] for i in rng.permutation(len(specs))]
        alone = [_compile_specs([spec], n)[0] for spec in specs]
        ill = sorted(M.shape for M in (_log_operand(spec) for spec in specs
                                       if spec.cls in ("gvw", "mg12", "u1"))
                     if np.linalg.cond(np.linalg.eig(M)[1]) > 1e4)
        assert ill == [(2, 2), (4, 4)]
        calls = []
        with monkeypatch.context() as patch:
            _counting(patch, calls, (np.linalg, "eig"), (scipy.linalg, "logm"))
            got = _compile_specs(specs, n)
        assert [repr(g.params) for g in got] == [repr(g.params) for g in alone]
        assert [call for call in calls if call[0] == "eig"] == [("eig", (18, 4, 4)),
                                                                ("eig", (9, 2, 2))]
        assert sorted(shape for name, shape in calls if name == "logm") == ill
