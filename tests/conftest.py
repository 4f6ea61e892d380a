from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest

from mgsim.engine_lie import LieBasis, _apply_adjoint, build_basis
from mgsim.engine_quadratic import _observable_indices, _propagate_columns
from mgsim.errors import InconsistencyError
from mgsim.jw import JwFamily
from mgsim.pauli import PauliSum, commutation_sign, pauli_mul


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def heisenberg_observable(gates, k: int, family: JwFamily, observable: str = "Z") -> PauliSum:
    """C^{-1} O C expanded as a Pauli sum over the family's n lines, from the
    quadratic engine's two propagated columns."""
    n = family.n
    cols = _propagate_columns(list(gates), n, *_observable_indices(k, n, observable))
    u, v = cols[:, 0], cols[:, 1]
    B = -0.5j * (np.outer(u, v) - np.outer(v, u))
    return _expand_coeff_matrix(B, family).restricted(n)


def _expand_coeff_matrix(B: np.ndarray, family: JwFamily, drop_tol: float = 1e-14) -> PauliSum:
    """sum_{a != b} B[a, b] d_a d_b for an antisymmetric B."""
    out = PauliSum(family.lines)
    for a, b in zip(*np.nonzero(np.abs(B) > drop_tol)):
        out._add_string(pauli_mul(family.d(a), family.d(b)), weight=B[a, b])
    out._prune()
    return out


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
