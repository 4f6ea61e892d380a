from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from mgsim.engine_lie import LieBasis, _apply_adjoint, build_basis
from mgsim.circuits import GateSpec, exp_spec
from mgsim.engine_quadratic import (_exp_generators, _gate_blocks, _observable_indices,
                                     _propagate_columns)
from mgsim.errors import InconsistencyError
from mgsim.exponents import to_pauli_sum
from mgsim.jw import PARITY, JwFamily
from mgsim.matchgate import g_vw
from mgsim.oracle import _prepare
from mgsim.pauli import PauliString, PauliSum, ProductState, commutation_sign, pauli_mul


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def exp_gate(a=None, b=None, s=0j) -> GateSpec:
    """The exp gate of coefficients a {(mu, nu): value}, b {sigma: value} and s, made
    complex, with exact zeros dropped as compile drops them."""
    return exp_spec({key: complex(v) for key, v in (a or {}).items() if v != 0},
                    {key: complex(v) for key, v in (b or {}).items() if v != 0}, complex(s))


def heisenberg_observable(gates, k: int, family: JwFamily) -> PauliSum:
    """C^{-1} Z_k C expanded as a Pauli sum over the family's n lines, from the
    quadratic engine's two propagated columns."""
    n = family.n
    cols = _propagate_columns(list(gates), n, *_observable_indices(k, n))
    u, v = cols[:, 0], cols[:, 1]
    B = -0.5j * (np.outer(u, v) - np.outer(v, u))
    out = _expand_coeff_matrix(B, family)
    # each d_a d_b is c_a c_b or -i c_b, so no term may act on an auxiliary line
    assert all(x >> n == 0 and z >> n == 0 for x, z in out.terms), "observable left the n lines"
    return PauliSum(n, out.terms)


def _expand_coeff_matrix(B: np.ndarray, family: JwFamily, drop_tol: float = 1e-14) -> PauliSum:
    """sum_{a != b} B[a, b] d_a d_b for an antisymmetric B."""
    out = PauliSum(family.lines)
    for a, b in zip(*np.nonzero(np.abs(B) > drop_tol)):
        out._add_string(pauli_mul(family.d(a), family.d(b)), weight=B[a, b])
    out._prune()
    return out


def pauli(label: str) -> PauliString:
    """A Pauli string from letters like "XIZ", line 1 first."""
    x = sum((ch in "XY") << k for k, ch in enumerate(label))
    z = sum((ch in "YZ") << k for k, ch in enumerate(label))
    return PauliString(len(label), x, z)


def computational(bits) -> ProductState:
    """The computational basis state |b_1 ... b_n>."""
    return ProductState(np.eye(2)[list(bits)])


def apply_gate(state: np.ndarray, g, n: int, inverse: bool = False) -> np.ndarray:
    """The oracle's action of one GateSpec (or its inverse) on a dense state."""
    return _prepare(g, n).apply(state, inverse)


def apply_matrix(state: np.ndarray, matrix: np.ndarray, lines, n: int) -> np.ndarray:
    """A 2^m x 2^m matrix on the given (1-based, distinct) lines of a dense state,
    line 1 as the most significant bit: the reference for the oracle's reshape kernels."""
    m = len(lines)
    axes = [l - 1 for l in lines]
    psi = np.moveaxis(np.asarray(state, dtype=complex).reshape((2,) * n), axes, range(m))
    shape = psi.shape
    psi = np.asarray(matrix, dtype=complex) @ psi.reshape(1 << m, -1)
    return np.moveaxis(psi.reshape(shape), range(m), axes).reshape(-1)


def dense_gate(g: GateSpec, n: int) -> np.ndarray:
    """The full 2^n x 2^n matrix e^A of an exp gate on n lines, through one dense expm:
    the reference for the oracle's split exponentials."""
    return scipy.linalg.expm(to_pauli_sum(g, JwFamily(n, PARITY)).to_matrix())


def is_unitary_exponent(g: GateSpec, tol: float = 1e-8) -> bool:
    """e^A of an exp gate is manifestly unitary up to a global phase: a real, b and s
    imaginary."""
    return (all(abs(val.imag) <= tol for _, val in g.param("a"))
            and all(abs(val.real) <= tol for _, val in g.param("b"))
            and abs(g.param("s").real) <= tol)


def exp_block_generator(g: GateSpec, n: int) -> tuple[list[int], np.ndarray]:
    """The support and X = -4 atilde of the quadratic engine's block for an exp gate on
    n lines, before the engine exponentiates it."""
    [(gates, X)] = _exp_generators([(g.param("a"), g.param("b"))], n).values()
    return gates[0][1], X[0]


def gate_transfer(g: GateSpec, n: int) -> np.ndarray:
    """The quadratic engine's K of one gate, embedded in the identity over d indices
    0..2n."""
    K = np.eye(2 * n + 1, dtype=complex)
    for idx, block in _gate_blocks([g], n):
        K[np.ix_(idx, idx)] = block
    return K


# d_0..d_4 on two lines as 4x4 matrices, and their transposes flattened, so
# that _D2T @ M.reshape(5, 16).T is the matrix of traces tr(d_a M_b).
_D2 = np.array([JwFamily(2).d(mu).to_matrix() for mu in range(5)])
_D2T = _D2.transpose(0, 2, 1).reshape(5, 16)


def reference_matrix(spec: GateSpec) -> np.ndarray:
    """The 4x4 matrix of one matrix-class spec, built on its own; u1 gives U (x) I."""
    if spec.cls == "gvw":
        return g_vw(spec.param("V"), spec.param("W"))
    if spec.cls == "diag":
        return np.diag(np.array(spec.param("d"), dtype=complex))
    if spec.cls == "mg12":
        return np.array(spec.param("B"), dtype=complex)
    return np.kron(np.array(spec.param("U"), dtype=complex), np.eye(2))


def reference_gate_block(g: GateSpec) -> tuple[list[int], np.ndarray]:
    """Support d indices and transfer block of one GateSpec, built gate by gate: the
    reference for the quadratic engine's batched blocks.

    Matrix classes: K_ab = 1/4 tr(d_a B^{-1} d_b B), one inverse per gate.  Exp gates:
    e^X with X = -4 atilde over their nonzero coefficients, through eigh of iX when X
    is exactly real antisymmetric, else scipy's expm.
    """
    if g.cls != "exp":
        B = reference_matrix(g)
        M = np.linalg.inv(B) @ _D2 @ B
        K = 0.25 * _D2T @ M.reshape(5, 16).T
        if g.cls == "mg12":
            return [0, 1, 2, 3, 4], K
        if g.cls == "u1":
            return [0, 1, 2], K[:3, :3]
        k, l = g.lines
        return [2 * k - 1, 2 * k, 2 * l - 1, 2 * l], K[1:, 1:]
    atilde = ([(pair, val) for pair, val in g.param("a") if val != 0]
              + [((0, sigma), 0.5j * val) for sigma, val in g.param("b") if val != 0])
    idx = sorted({mu for pair, _ in atilde for mu in pair})
    pos = {mu: p for p, mu in enumerate(idx)}
    m = np.zeros((len(idx), len(idx)), dtype=complex)
    for (mu, nu), val in atilde:
        m[pos[mu], pos[nu]] = val
        m[pos[nu], pos[mu]] = -val
    X = -4.0 * m
    if not X.imag.any() and np.array_equal(X.real, -X.real.T):
        lam, V = np.linalg.eigh(1j * X.real)
        return idx, ((V * np.exp(-1j * lam)) @ V.conj().T).real
    return idx, scipy.linalg.expm(X)


@dataclass(frozen=True)
class StructureConstants:
    """Sparse c^k_{ij} with [B_i, B_j] = sum_k c^k_{ij} B_k; at most one k per pair."""

    basis: LieBasis
    by_first: tuple  # by_first[i] = tuple of (j, k, value) entries

    def bracket(self, i: int, j: int):
        """(k, value) of [B_i, B_j], or None if the bracket vanishes."""
        for jj, k, val in self.by_first[i]:
            if jj == j:
                return k, val
        return None


@lru_cache(maxsize=None)
def structure_constants(n: int) -> StructureConstants:
    """All pairwise commutators of the Lie engine's basis, expanded exactly by a
    scan over every basis pair: the reference for the engine's closed-form blocks."""
    basis = build_basis(n)
    elems = basis.elements
    lookup = {(e.x_mask, e.z_mask): (idx, e.scalar) for idx, e in enumerate(elems)}
    by_first = [[] for _ in elems]
    for i in range(1, basis.dim):
        for j in range(i + 1, basis.dim):
            if commutation_sign(elems[i], elems[j]) == 1:
                continue
            prod = pauli_mul(elems[i], elems[j])  # [B_i, B_j] = 2 B_i B_j here
            hit = lookup.get((prod.x_mask, prod.z_mask))
            if hit is None:
                raise InconsistencyError(
                    f"commutator of basis elements {i}, {j} left the L1+2 span"
                )
            k, scal = hit
            val = 2 * prod.scalar / scal
            by_first[i].append((j, k, val))
            by_first[j].append((i, k, -val))
    return StructureConstants(basis, tuple(tuple(row) for row in by_first))


def dense_generator(xi, sc: StructureConstants) -> np.ndarray:
    """M[k, i] = sum_j xi_j c^k_{ji} as one dense dim x dim matrix."""
    M = np.zeros((sc.basis.dim, sc.basis.dim), dtype=complex)
    for j in np.flatnonzero(xi):
        for i, k, val in sc.by_first[j]:
            M[k, i] += xi[j] * val
    return M


def adjoint_transfer(xi, sc: StructureConstants) -> np.ndarray:
    """e^M as a dense matrix, one column per basis element, each through the
    engine's block-wise action: e^A (sum eta_i B_i) e^{-A} = sum (e^M eta)_i B_i."""
    xi = np.asarray(xi, dtype=complex)
    return np.column_stack([_apply_adjoint(e, xi, sc.basis.n)
                            for e in np.eye(sc.basis.dim, dtype=complex)])
