"""Second, independent engine built on the adjoint representation of L1+2.

The linear span of the identity, the 2n generators c_mu, and the n(2n-1)
Hermitian quadratics i c_mu c_nu closes under commutators (dimension
n(2n+1) + 1, the complexified so(2n+1) plus center).  Conjugation by e^A
therefore acts on coefficient vectors over this basis as e^M, where M is
assembled from the structure constants c^k_{ij} of the algebra and the
coefficients xi of A.  M is never built as a dense matrix: its nonzero
entries split into connected components, at most |S| + 1 elements each
outside a gate's c-support S, and e^M is exponentiated block by block.

The derivation is completely independent of the quadratic d-operator
transfer: no extended operator d_0 appears, the basis is exponentially
smaller than the full Pauli algebra but quadratically larger than the
d-space.  This engine exists to cross-check engine_quadratic; that one is
the performance engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from .engine_quadratic import SimResult
from .errors import DimensionError, InconsistencyError
from .exponents import GateExponent
from .jw import PARITY, JwFamily
from .pauli import PauliString, PauliSum, ProductState, commutation_sign, expectation, pauli_mul

ENGINE_NAME = "lie"


@dataclass(frozen=True)
class LieBasis:
    """Ordered Hermitian basis of L1+2: identity, c_mu, then i c_mu c_nu (mu < nu)."""

    n: int
    elements: tuple  # PauliStrings, all with scalar prefactor +1 or -1
    pair_index: tuple  # sorted ((mu, nu), basis index) entries

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def _pair_lookup(self) -> dict:
        return dict(self.pair_index)

    def index_of_pair(self, mu: int, nu: int) -> int:
        return self._pair_lookup[(mu, nu)]


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
def build_basis(n: int) -> LieBasis:
    family = JwFamily(n, PARITY)
    elems = [PauliString(n, 0, 0)]
    for mu in range(1, 2 * n + 1):
        elems.append(family.c(mu))
    pairs = []
    for mu in range(1, 2 * n + 1):
        for nu in range(mu + 1, 2 * n + 1):
            prod = pauli_mul(family.c(mu), family.c(nu))
            pairs.append(((mu, nu), len(elems)))
            elems.append(PauliString(n, prod.x_mask, prod.z_mask, prod.phase_pow + 1, prod.coeff))
    return LieBasis(n, tuple(elems), tuple(pairs))


@lru_cache(maxsize=None)
def structure_constants(n: int) -> StructureConstants:
    """All pairwise commutators, expanded exactly over the basis."""
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


def gate_coefficients(g: GateExponent, basis: LieBasis) -> np.ndarray:
    """Expand A = sum 2a c c + sum b c + s over the basis: xi such that A = sum xi_j B_j."""
    if basis.n != g.n:
        raise DimensionError(f"basis has n={basis.n}, exponent has n={g.n}")
    xi = np.zeros(basis.dim, dtype=complex)
    xi[0] = g.s
    for sigma, val in g.b:
        xi[sigma] = val
    for (mu, nu), val in g.a:
        # 2a c_mu c_nu = -2i a * (i c_mu c_nu)
        xi[basis.index_of_pair(mu, nu)] = -2j * val
    return xi


@lru_cache(maxsize=512)
def _block_plan(n: int, terms: tuple) -> tuple:
    """How M = sum_j xi_j ad(B_j) splits into blocks, for xi supported on ``terms``.

    M[k, i] = sum_j xi_j c^k_{ji} is nonzero only on the (k, i) pairs listed in
    ``by_first[j]``; each pair comes from exactly one j, since B_j is fixed by
    B_k B_i.  The indices these pairs touch fall into connected components of
    M's nonzero pattern.  M is block diagonal over them, so e^M is exactly the
    block-diagonal matrix of the blocks' exponentials.  For a gate on
    c-support S the blocks are the S-internal basis elements and, for each
    index tau outside S, at most |S| + 1 elements around c_tau.  Components
    whose entries come from the same (position, j, c^k_{ji}) list have equal
    blocks for every xi, so each such kind is exponentiated once.

    Returns one (idx, kind, j, val, flat) plan per block size s: ``idx`` (m, s)
    holds the basis indices of the m components of that size, ``kind`` (m,)
    the kind of each, and the kinds' stacked s x s blocks are
    ``blocks.flat[flat] = xi[j] * val``.
    """
    by_first = structure_constants(n).by_first
    entries = [(k, i, j, val) for j in terms for i, k, val in by_first[j]]
    parent = {}

    def root(a):
        while parent.setdefault(a, a) != a:
            parent[a] = a = parent[parent[a]]
        return a

    for k, i, _, _ in entries:
        parent[root(k)] = root(i)
    components = {}
    for a in sorted(parent):
        components.setdefault(root(a), []).append(a)
    place = {a: (r, p, len(comp)) for r, comp in components.items() for p, a in enumerate(comp)}
    local = {r: [] for r in components}  # component root -> its (position, j, val) entries
    for k, i, j, val in entries:
        r, p, s = place[k]
        local[r].append((p * s + place[i][1], j, val))
    plans = {}  # block size -> (components, kinds, {signature: kind})
    for r, comp in components.items():
        comps, kinds, seen = plans.setdefault(len(comp), ([], [], {}))
        comps.append(comp)
        kinds.append(seen.setdefault(tuple(sorted(local[r])), len(seen)))
    out = []
    for s, (comps, kinds, seen) in sorted(plans.items()):
        rows = [(kind * s * s + p, j, val) for sig, kind in seen.items() for p, j, val in sig]
        flat, j, val = (np.array(col) for col in zip(*rows))
        out.append((np.array(comps), np.array(kinds), j, val.astype(complex), flat))
    return tuple(out)


def _exp_blocks(xi: np.ndarray, n: int):
    """Yield (idx, e^{M_b} per component) per block size, one batched expm per size."""
    for idx, kind, j, val, flat in _block_plan(n, tuple(np.flatnonzero(xi).tolist())):
        s = idx.shape[1]
        blocks = np.zeros((kind.max() + 1) * s * s, dtype=complex)
        blocks[flat] = xi[j] * val
        yield idx, scipy.linalg.expm(blocks.reshape(-1, s, s))[kind]


def adjoint_transfer(xi, sc: StructureConstants) -> np.ndarray:
    """e^M acting on coefficient vectors: e^A (sum eta_i B_i) e^{-A} = sum (e^M eta)_i B_i."""
    out = np.eye(sc.basis.dim, dtype=complex)
    for idx, block in _exp_blocks(np.asarray(xi, dtype=complex), sc.basis.n):
        out[idx[:, :, None], idx[:, None, :]] = block
    return out


def _apply_adjoint(eta: np.ndarray, xi: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """eta <- e^M eta, block by block; indices outside every block keep their value."""
    out = eta.copy()
    for idx, block in _exp_blocks(xi, sc.basis.n):
        out[idx] = (block @ eta[idx][:, :, None])[:, :, 0]
    return out


def heisenberg_observable(gates, k: int, n: int) -> PauliSum:
    """C^{-1} Z_k C as a Pauli sum, via adjoint transfers over the Lie basis."""
    eta = _propagate(gates, k, n)
    basis = build_basis(n)
    return PauliSum.from_strings(
        (basis.elements[i].with_coeff(eta[i]) for i in np.flatnonzero(eta)), n=n
    )


def _propagate(gates, k: int, n: int) -> np.ndarray:
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    sc = structure_constants(n)
    basis = sc.basis
    eta = np.zeros(basis.dim, dtype=complex)
    eta[basis.index_of_pair(2 * k - 1, 2 * k)] = -1.0  # Z_k = -(i c_{2k-1} c_{2k})
    for g in reversed(list(gates)):
        if g.n != n:
            raise DimensionError(f"gate has n={g.n}, circuit has n={n}")
        # g^{-1} O g is the adjoint action of e^{-A}
        eta = _apply_adjoint(eta, -gate_coefficients(g, basis), sc)
    return eta


def simulate(gates, state: ProductState, k: int, unitary: bool | None = None,
             tol: float = 1e-9) -> SimResult:
    n = state.n
    t0 = time.perf_counter()
    gates = list(gates)
    value = expectation(state, heisenberg_observable(gates, k, n))
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
