"""Second, independent engine built on the adjoint representation of L1+2.

The linear span of the identity, the 2n generators c_mu, and the n(2n-1)
Hermitian quadratics i c_mu c_nu closes under commutators (dimension
n(2n+1) + 1, the complexified so(2n+1) plus center).  Conjugation by e^A
therefore acts on coefficient vectors over this basis as e^M, where M is
assembled from the structure constants c^k_{ij} of the algebra and the
coefficients xi of A.

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


def _adjoint_generator(xi: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """M with M[k, i] = sum_j xi_j c^k_{ji}, the derivative of Ad(e^{tA})."""
    d = sc.basis.dim
    M = np.zeros((d, d), dtype=complex)
    for j in np.flatnonzero(xi):
        for i, k, val in sc.by_first[j]:
            M[k, i] += xi[j] * val
    return M


def adjoint_transfer(xi, sc: StructureConstants) -> np.ndarray:
    """e^M acting on coefficient vectors: e^A (sum eta_i B_i) e^{-A} = sum (e^M eta)_i B_i."""
    M = _adjoint_generator(np.asarray(xi, dtype=complex), sc)
    active = sorted(set(np.flatnonzero(np.any(M != 0, axis=0)))
                    | set(np.flatnonzero(np.any(M != 0, axis=1))))
    out = np.eye(sc.basis.dim, dtype=complex)
    if active:
        out[np.ix_(active, active)] = scipy.linalg.expm(M[np.ix_(active, active)])
    return out


def _apply_adjoint(eta: np.ndarray, xi: np.ndarray, sc: StructureConstants) -> np.ndarray:
    """eta <- e^M eta, exponentiating only the active sub-block."""
    M = _adjoint_generator(xi, sc)
    active = sorted(set(np.flatnonzero(np.any(M != 0, axis=0)))
                    | set(np.flatnonzero(np.any(M != 0, axis=1))))
    if not active:
        return eta
    block = scipy.linalg.expm(M[np.ix_(active, active)])
    out = eta.copy()
    out[active] = block @ eta[active]
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
