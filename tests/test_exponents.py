import numpy as np
import pytest
import scipy.linalg

from mgsim import circuits, sampling
from mgsim import matchgate as mg
from mgsim.errors import DimensionError, GateClassError
from mgsim.exponents import (GateExponent, compile_diag, compile_matrix, compile_u1,
                             extend_quadratic, from_extended, is_unitary_exponent,
                             to_pauli_sum)
from mgsim.jw import PARITY, JwFamily
from mgsim.oracle import dense_gate
from mgsim.sampling import random_su2

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_make_validates_indices():
    with pytest.raises(DimensionError):
        GateExponent.make(2, a={(2, 1): 1.0})
    with pytest.raises(DimensionError):
        GateExponent.make(2, b={5: 1.0})


def test_support_and_matrices():
    g = GateExponent.make(3, a={(1, 4): 2.0}, b={3: 1j}, s=0.5)
    assert g.support() == [1, 3, 4]
    m = g.a_matrix()
    assert m[0, 3] == 2.0 and m[3, 0] == -2.0
    assert g.b_vector()[2] == 1j


def test_extend_round_trip(rng):
    for _ in range(20):
        g = GateExponent.make(
            3,
            a={(1, 2): complex(rng.normal(), rng.normal()),
               (3, 6): complex(rng.normal(), rng.normal())},
            b={4: complex(rng.normal(), rng.normal())},
            s=complex(rng.normal(), rng.normal()),
        )
        eq = extend_quadratic(g)
        assert from_extended(eq) == g
        # the extension is purely quadratic over d_0..d_2n and antisymmetric
        m = eq.block(range(2 * eq.n + 1))
        assert np.allclose(m, -m.T)


def test_extended_quadratic_reproduces_pauli_sum(rng):
    # expanding sum atilde d_mu d_nu + s over Pauli strings equals to_pauli_sum
    from mgsim.pauli import PauliSum, pauli_mul

    g = GateExponent.make(2, a={(1, 3): 0.4 - 0.2j}, b={2: 0.7j}, s=0.1)
    fam = JwFamily(2, PARITY)
    eq = extend_quadratic(g)
    out = PauliSum(fam.lines)
    for (mu, nu), val in eq.atilde:
        out._add_string(pauli_mul(fam.d(mu), fam.d(nu)), weight=2 * val)
    from mgsim.pauli import PauliString
    out._add_string(PauliString(fam.lines, 0, 0), weight=eq.s)
    out._prune()
    ref = to_pauli_sum(g, fam)
    assert np.allclose(out.to_matrix(), ref.to_matrix(), atol=1e-13)


def test_to_pauli_sum_dense(rng):
    g = GateExponent.make(3, a={(2, 5): 0.3 + 0.1j}, b={1: -0.2j, 6: 0.4}, s=0.25j)
    fam = JwFamily(3, PARITY)
    A = to_pauli_sum(g, fam).to_matrix()
    ref = np.zeros((8, 8), dtype=complex)
    for (mu, nu), val in g.a:
        from mgsim.pauli import pauli_mul
        ref += 2 * val * pauli_mul(fam.c(mu), fam.c(nu)).to_matrix()
    for sigma, val in g.b:
        ref += val * fam.c(sigma).to_matrix()
    ref += g.s * np.eye(8)
    assert np.allclose(A, ref, atol=1e-13)


def test_compile_gvw_identity():
    g = compile_matrix(mg.g_vw(np.eye(2), np.eye(2)), 1, 2)
    assert g.a == () and g.b == () and g.s == 0


def test_compile_gvw_phase_gate():
    alpha = 1.1
    P = np.diag([np.exp(1j * alpha), 1.0])  # phase on line k only
    # P_alpha (x) I as a G(V, W): V = diag(e^{ia}, 1), W = diag(e^{ia}, 1)
    V = np.diag([np.exp(1j * alpha), 1.0])
    W = np.diag([np.exp(1j * alpha), 1.0])
    g = compile_matrix(mg.g_vw(V, W), 1, 2)
    a = g.a_dict
    assert g.b == ()
    assert set(a) == {(1, 2)} and abs(g.s) > 0
    assert np.linalg.norm(dense_gate(g) - np.kron(P, np.eye(2))) < 1e-9


def test_compile_gvw_dense(rng):
    for _ in range(20):
        V, W = random_su2(rng), random_su2(rng)
        B = mg.g_vw(V, W)
        g = compile_matrix(B, 2, 3)
        assert np.linalg.norm(dense_gate(g) - np.kron(np.eye(2), B)) < 1e-9
        assert is_unitary_exponent(g)


def test_compile_mg12_identity_and_linear():
    g = compile_matrix(np.eye(4), 1, 2)
    assert g.a == () and g.b == () and g.s == 0
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    B = scipy.linalg.expm(np.kron(X, np.eye(2)))  # exp(c_1)
    g = compile_matrix(B, 1, 2)
    assert g.a == ()
    assert set(g.b_dict) == {1}
    assert abs(g.b_dict[1] - 1.0) < 1e-9
    # on lines (2, 3) the same local X is not c_3, which carries Z on line 1
    with pytest.raises(GateClassError, match="linear coefficient"):
        compile_matrix(B, 2, 3)


def test_compile_mg12_random(rng):
    for _ in range(30):
        Bt = mg.exp_L(0.4 * (rng.normal(size=11) + 1j * rng.normal(size=11)))
        B = mg.swap_convention(Bt)
        g = compile_matrix(B, 1, 3)
        assert np.linalg.norm(dense_gate(g) - np.kron(B, np.eye(2))) < 1e-9


def test_compile_diag():
    g = compile_diag(np.ones(4), 1, 2, 2)
    assert g.a == () and g.b == () and g.s == 0


def test_compile_diag_dense(rng):
    for _ in range(20):
        d = rng.normal(size=4) + 1j * rng.normal(size=4)
        d[3] = d[1] * d[2] / d[0]
        k, l = 1, 3
        g = compile_diag(d, k, l, 3)
        ref = np.zeros((8, 8), dtype=complex)
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    i = 4 * b1 + 2 * b2 + b3
                    ref[i, i] = d[2 * b1 + b3]
        assert np.linalg.norm(dense_gate(g) - ref) < 1e-9


def test_compile_u1():
    g = compile_u1(np.eye(2), 1)
    assert g.a == () and g.b == () and g.s == 0
    g = compile_u1(H, 2)
    assert np.linalg.norm(dense_gate(g) - np.kron(H, np.eye(2))) < 1e-10


def test_unitary_flag():
    assert is_unitary_exponent(compile_u1(H, 1))
    assert not is_unitary_exponent(GateExponent.make(1, a={(1, 2): 1j}))
    assert not is_unitary_exponent(GateExponent.make(1, b={1: 0.5}))
    assert is_unitary_exponent(GateExponent.make(1, a={(1, 2): 0.5}, b={1: 0.3j}, s=0.2j))


def _compile_specs(specs, n):
    return circuits.compile(circuits.Circuit(n, ((1.0, 0j),) * n, tuple(specs), 1, False))


def _coefficient_gap(g, h):
    gap = abs(g.s - h.s)
    for mine, theirs in ((g.a_dict, h.a_dict), (g.b_dict, h.b_dict)):
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
        B = spec.matrix()  # on n = 2 the gate's matrix is the whole register
        assert np.linalg.norm(dense_gate(g) - B) <= 1e-12 * max(1.0, np.linalg.norm(B))
        assert _coefficient_gap(g, h) <= 1e-12


def test_defective_gates_compile_through_logm(monkeypatch):
    calls = []
    logm = scipy.linalg.logm

    def counting_logm(A):
        calls.append(np.shape(A))
        return logm(A)

    monkeypatch.setattr(scipy.linalg, "logm", counting_logm)
    J = np.array([[1, 1], [0, 1]], dtype=complex)  # unipotent: no eigenbasis
    g = compile_matrix(mg.g_vw(J, J), 1, 2)
    assert np.linalg.norm(dense_gate(g) - mg.g_vw(J, J)) <= 1e-12
    u = compile_u1(J, 2)
    assert np.linalg.norm(dense_gate(u) - np.kron(J, np.eye(2))) <= 1e-12
    assert calls == [(4, 4), (2, 2)]
