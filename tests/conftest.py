from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

from mgsim import circuits
from mgsim.engine_lie import _apply_blocks, _generator_blocks, dimension, element, gate_coefficients
from mgsim.circuits import GateSpec, exp_spec
from mgsim.engine_quadratic import (_blocks, _exp_generators, _observable_indices,
                                     _propagate_columns, _read_gate)
from mgsim.errors import InconsistencyError
from mgsim.exponents import to_pauli_sum
from mgsim.jw import PARITY, JwFamily
from mgsim.linalg import expm_stack
from mgsim.matchgate import g_vw
from mgsim.oracle import _prepare
from mgsim.pauli import PauliString, ProductState, commutation_sign, pauli_mul


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def exp_gate(a=None, b=None, s=0j) -> GateSpec:
    """The exp gate of coefficients a {(mu, nu): value}, b {sigma: value} and s, made
    complex, with exact zeros dropped as compile drops them."""
    return exp_spec({key: complex(v) for key, v in (a or {}).items() if v != 0},
                    {key: complex(v) for key, v in (b or {}).items() if v != 0}, complex(s))


def compiled(B, k: int = 1) -> GateSpec:
    """The exp gate ``circuits.compile`` gives one matrix: a 2x2 B as a u1 gate, a 4x4 B
    (standard qubit order) as an mg12 gate on lines (k, k+1), where parse takes mg12
    only for k = 1."""
    B = tuple(map(tuple, np.asarray(B, dtype=complex)))
    spec = (GateSpec("u1", (1,), (("U", B),)) if len(B) == 2
            else GateSpec("mg12", (k, k + 1), (("B", B),)))
    [g] = circuits.compile(circuits.Circuit(k + 1, ((1.0, 0j),) * (k + 1), (spec,), 1, False))
    return g


def heisenberg_observable(gates, k: int, family: JwFamily) -> dict:
    """C^{-1} Z_k C expanded as Pauli terms {(x_mask, z_mask): coeff} over the family's
    n lines, from the quadratic engine's two propagated columns."""
    n = family.n
    cols = _propagate_columns(list(gates), n, *_observable_indices(k, n))
    u, v = cols[:, 0], cols[:, 1]
    B = -0.5j * (np.outer(u, v) - np.outer(v, u))
    out = _expand_coeff_matrix(B, family)
    # each d_a d_b is c_a c_b or -i c_b, so no term may act on an auxiliary line
    assert all(x >> n == 0 and z >> n == 0 for x, z in out), "observable left the n lines"
    return out


def _expand_coeff_matrix(B: np.ndarray, family: JwFamily) -> dict:
    """sum_{a != b} B[a, b] d_a d_b for an antisymmetric B, as Pauli terms; the pairs
    (a, b) and (b, a) share a term."""
    out = {}
    for a, b in zip(*np.nonzero(B)):
        p = pauli_mul(family.d(a), family.d(b))
        out[p.x_mask, p.z_mask] = out.get((p.x_mask, p.z_mask), 0j) + B[a, b] * p.scalar
    return out


def terms_matrix(terms: dict, n: int) -> np.ndarray:
    """The dense 2^n x 2^n matrix of Pauli terms {(x_mask, z_mask): coeff}."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for (x, z), val in terms.items():
        out += val * PauliString(n, x, z).to_matrix()
    return out


def terms_expectation(state: ProductState, terms: dict) -> complex:
    """<state| sum coeff * P |state> over Pauli terms {(x_mask, z_mask): coeff}, term by
    term and line by line: the reference at sizes the dense matrix cannot reach."""
    e = state.single_line_expectations()
    ex, ey, ez = e["X"], e["Y"], e["Z"]
    total = 0j
    for (x, z), coeff in terms.items():
        val = coeff
        support = x | z
        while support and val:
            lsb = support & -support
            k = lsb.bit_length() - 1
            xb = (x >> k) & 1
            val *= ey[k] if (xb and (z >> k) & 1) else (ex[k] if xb else ez[k])
            support ^= lsb
        total += val
    return total


def dense_expectation(state: ProductState, terms: dict) -> complex:
    """<state| sum coeff * P |state> through the dense matrix of the terms."""
    vec = state.to_vector()
    return np.vdot(vec, terms_matrix(terms, state.n) @ vec)


def lie_terms(eta: np.ndarray, n: int) -> dict:
    """sum_i eta_i B_i over the Lie engine's basis as Pauli terms {(x_mask, z_mask): coeff},
    one per nonzero eta entry."""
    out = {}
    for i in np.flatnonzero(eta):
        e = element(n, int(i))
        out[e.x_mask, e.z_mask] = eta[i] * e.scalar
    return out


def dense_coefficients(g: GateSpec, n: int) -> np.ndarray:
    """The Lie engine's coefficients of an exp gate on n lines as one dense vector over
    the basis."""
    terms, xi = gate_coefficients(g, n)
    out = np.zeros(dimension(n), dtype=complex)
    out[list(terms)] = xi
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
    return _prepare([g], n)[0].apply(state, inverse)


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
    return scipy.linalg.expm(terms_matrix(to_pauli_sum(g, JwFamily(n, PARITY)), n))


def is_unitary_exponent(g: GateSpec, tol: float = 1e-8) -> bool:
    """e^A of an exp gate is manifestly unitary up to a global phase: a real, b and s
    imaginary."""
    return (all(abs(val.imag) <= tol for _, val in g.param("a"))
            and all(abs(val.real) <= tol for _, val in g.param("b"))
            and abs(g.param("s").real) <= tol)


def exp_block_generator(g: GateSpec, n: int) -> tuple[list[int], np.ndarray]:
    """The support and X = -4 atilde of the quadratic engine's block for an exp gate on
    n lines, before the engine exponentiates it."""
    [(gates, X)] = _exp_generators([_read_gate(g, n)]).values()
    return gates[0][1], X[0]


def gate_blocks(gates, n: int) -> list[tuple[list[int], np.ndarray]]:
    """The quadratic engine's support d indices and the transfer restricted to them, for
    each GateSpec of a list on n lines, built as the engine builds a chunk of kept gates."""
    return _blocks([(g, *_read_gate(g, n)) for g in gates])


def gate_transfer(g: GateSpec, n: int) -> np.ndarray:
    """The quadratic engine's K of one gate, embedded in the identity over d indices
    0..2n."""
    K = np.eye(2 * n + 1, dtype=complex)
    for idx, block in gate_blocks([g], n):
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
    is exactly real antisymmetric, else expm_stack on X alone.
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
    return idx, expm_stack(X)


@dataclass(frozen=True)
class StructureConstants:
    """Sparse c^k_{ij} with [B_i, B_j] = sum_k c^k_{ij} B_k; at most one k per pair."""

    n: int
    elements: tuple  # the Lie engine's basis, element(n, i) at position i
    by_first: tuple  # by_first[i] = tuple of (j, k, value) entries

    @property
    def dim(self) -> int:
        return len(self.elements)

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
    elems = tuple(element(n, i) for i in range(dimension(n)))
    lookup = {(e.x_mask, e.z_mask): (idx, e.scalar) for idx, e in enumerate(elems)}
    by_first = [[] for _ in elems]
    for i in range(1, len(elems)):
        for j in range(i + 1, len(elems)):
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
    return StructureConstants(n, elems, tuple(tuple(row) for row in by_first))


def dense_generator(xi, sc: StructureConstants) -> np.ndarray:
    """M[k, i] = sum_j xi_j c^k_{ji} as one dense dim x dim matrix."""
    M = np.zeros((sc.dim, sc.dim), dtype=complex)
    for j in np.flatnonzero(xi):
        for i, k, val in sc.by_first[j]:
            M[k, i] += xi[j] * val
    return M


def adjoint_transfer(xi, sc: StructureConstants) -> np.ndarray:
    """e^M as a dense matrix, one column per basis element, each through the
    engine's block-wise action: e^A (sum eta_i B_i) e^{-A} = sum (e^M eta)_i B_i."""
    xi = np.asarray(xi, dtype=complex)
    terms = tuple(np.flatnonzero(xi).tolist())
    parts = _generator_blocks(terms, xi[list(terms)], sc.n)
    columns = np.eye(sc.dim, dtype=complex)
    for column in columns:
        _apply_blocks(column, parts)
    return columns.T
