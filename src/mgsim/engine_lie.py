"""Second, independent engine built on the adjoint representation of L1+2.

The linear span of the identity, the 2n generators c_mu, and the n(2n-1)
Hermitian quadratics i c_mu c_nu closes under commutators (dimension
n(2n+1) + 1, the complexified so(2n+1) plus center).  Conjugation by e^A
therefore acts on coefficient vectors over this basis as e^M, where
M = sum_j xi_j ad(B_j) for the coefficients xi of A.  Gates are exp GateSpecs,
as ``circuits.compile`` returns every gate, and xi is read off their
coefficients.

Whether two basis elements have a nonzero bracket depends only on the c
indices they share: c_mu and c_nu anticommute for mu != nu, c_mu and
i c_nu c_rho iff mu is nu or rho, and two quadratics iff they share exactly
one index.  So M is read off the gate's c-support S in closed form: one
block on the elements inside S, and for every index tau outside S one block
on the elements i c_s c_tau (s in S), joined by c_tau when A has linear
terms.  Taken with s first, the outside blocks are all equal, so each gate
has at most two distinct blocks, and no table of structure constants is
built.  M is never formed as a dense matrix.  The blocks of a chunk of
gates are built first and exponentiated by ``linalg.expm_stack``, one call
per block size, then applied gate by gate in order.  The observable
C^-1 Z_k C comes out as a Pauli sum {(x_mask, z_mask): coeff} with one term
per nonzero coefficient of the propagated vector.

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
from itertools import combinations

import numpy as np

from . import linalg
from .engine_quadratic import SimResult
from .errors import DimensionError, InconsistencyError
from .jw import PARITY, JwFamily
from .pauli import PauliString, ProductState, commutation_sign, expectation, pauli_mul

ENGINE_NAME = "lie"

# Blocks are built for _CHUNK gates at a time, last gate first, or for fewer once
# they hold _CHUNK_ENTRIES entries (16 MB): expm_stack is called per chunk, and the
# blocks held stay bounded whatever the gates' supports.
_CHUNK = 256
_CHUNK_ENTRIES = 1 << 20


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
    def _pair_lookup(self) -> np.ndarray:
        """The basis index of i c_mu c_nu at [mu, nu] and at [nu, mu]."""
        mu, nu = np.array([pair for pair, _ in self.pair_index]).T
        table = np.zeros((2 * self.n + 1,) * 2, dtype=np.intp)
        table[mu, nu] = table[nu, mu] = [idx for _, idx in self.pair_index]
        return table

    def index_of_pair(self, mu: int, nu: int) -> int:
        if not 1 <= mu < nu <= 2 * self.n:
            raise KeyError((mu, nu))
        return int(self._pair_lookup[mu, nu])


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
            elems.append(PauliString(n, prod.x_mask, prod.z_mask, prod.phase_pow + 1))
    return LieBasis(n, tuple(elems), tuple(pairs))


def gate_coefficients(g, basis: LieBasis) -> np.ndarray:
    """Expand the A = sum 2a c c + sum b c + s of an exp gate over the basis: xi such
    that A = sum xi_j B_j."""
    if max(g.lines, default=0) > basis.n:
        raise DimensionError(f"gate on lines {g.lines}, basis has n={basis.n}")
    xi = np.zeros(basis.dim, dtype=complex)
    xi[0] = g.param("s")
    for sigma, val in g.param("b"):
        xi[sigma] = val
    for (mu, nu), val in g.param("a"):
        # 2a c_mu c_nu = -2i a * (i c_mu c_nu)
        xi[basis.index_of_pair(mu, nu)] = -2j * val
    return xi


@lru_cache(maxsize=None)
def _block_plan(n: int, terms: tuple) -> tuple:
    """How M = sum_j xi_j ad(B_j) splits into blocks, for xi supported on ``terms``.

    With S the c indices the terms touch, M is block diagonal over the inside
    block (c_s and i c_s c_t for s < t in S) and, for each tau outside S, an
    outside block: the oriented elements i c_s c_tau for s in S, plus c_tau
    when some term is linear.  An oriented element is the stored
    i c_min c_max times sign = -1 where s > tau; in that orientation all
    outside blocks are equal, so their entries are computed for the first
    tau only, from the exact Pauli product of each term with each element.

    Returns one (idx, sign, flat, j, val) per part, the inside one first: the
    part's s x s generator is ``block.flat[flat] = xi[j] * val``, and the rows
    of idx and sign (the inside part's one, the outside part's one per tau)
    give the basis indices it acts on and their signs.
    """
    basis = build_basis(n)
    terms = [j for j in terms if j]  # the identity commutes with everything
    support = set()
    for j in terms:
        support.update(basis.pair_index[j - 2 * n - 1][0] if j > 2 * n else (j,))
    S = sorted(support)
    table = basis._pair_lookup
    parts = []
    if S:
        inside = S + [table[s, t] for s, t in combinations(S, 2)]
        parts.append((np.array([inside]), np.ones((1, len(inside)))))
        tau = np.array([[t] for t in range(1, 2 * n + 1) if t not in support], dtype=np.intp)
        if len(tau):
            outside, sign = table[S, tau], np.where(S < tau, 1.0, -1.0)
            if terms[0] <= 2 * n:  # terms ascend, so the gate has linear terms
                outside, sign = np.hstack([outside, tau]), np.hstack([sign, np.ones(tau.shape)])
            parts.append((outside, sign))
    elems = basis.elements
    plan = []
    for idx, sign in parts:
        size = idx.shape[1]
        rep = list(zip(idx[0].tolist(), sign[0].tolist()))  # the first tau stands for all
        where = {(elems[i].x_mask, elems[i].z_mask): (p, sg * elems[i].scalar)
                 for p, (i, sg) in enumerate(rep)}
        flat, js, vals = [], [], []
        for j in terms:
            for q, (i, sg) in enumerate(rep):
                if commutation_sign(elems[j], elems[i]) == 1:
                    continue
                prod = pauli_mul(elems[j], elems[i])  # [B_j, B_i] = 2 B_j B_i here
                hit = where.get((prod.x_mask, prod.z_mask))
                if hit is None:
                    raise InconsistencyError(
                        f"commutator of basis elements {j}, {i} left their block"
                    )
                p, scal = hit
                flat.append(p * size + q)
                js.append(j)
                vals.append(2 * sg * prod.scalar / scal)
        plan.append((idx, sign, np.array(flat, dtype=np.intp), np.array(js, dtype=np.intp),
                     np.array(vals, dtype=complex)))
    return tuple(plan)


def _generator_blocks(xi: np.ndarray, n: int) -> list:
    """The blocks of M for coefficients xi, one (idx, sign, block) per part of _block_plan,
    each block of its part's own size."""
    out = []
    for idx, sign, flat, j, val in _block_plan(n, tuple(np.flatnonzero(xi).tolist())):
        size = idx.shape[1]
        block = np.zeros(size * size, dtype=complex)
        block[flat] = xi[j] * val
        out.append((idx, sign, block.reshape(size, size)))
    return out


def _apply_blocks(eta: np.ndarray, parts) -> None:
    """eta <- e^block eta on each part's indices, for (idx, sign, block) parts in turn;
    indices outside every part keep their value.

    The blocks of one size are exponentiated in one expm_stack call.
    """
    by_size = {}
    for _, _, block in parts:
        by_size.setdefault(len(block), []).append(block)
    exps = {size: iter(linalg.expm_stack(np.array(blocks))) for size, blocks in by_size.items()}
    for idx, sign, block in parts:
        e = next(exps[len(block)])
        eta[idx] = sign * ((sign * eta[idx]) @ e.T)


def heisenberg_observable(gates, k: int, n: int) -> dict:
    """C^{-1} Z_k C as Pauli terms {(x_mask, z_mask): coeff}, one per nonzero eta entry,
    via adjoint transfers over the Lie basis."""
    eta = _propagate(gates, k, n)
    elems = build_basis(n).elements
    return {(elems[i].x_mask, elems[i].z_mask): eta[i] * elems[i].scalar
            for i in np.flatnonzero(eta)}


def _propagate(gates, k: int, n: int) -> np.ndarray:
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    basis = build_basis(n)
    eta = np.zeros(basis.dim, dtype=complex)
    eta[basis.index_of_pair(2 * k - 1, 2 * k)] = -1.0  # Z_k = -(i c_{2k-1} c_{2k})
    parts, held, entries = [], 0, 0
    for g in reversed(list(gates)):
        # g^{-1} O g is the adjoint action of e^{-A}
        blocks = _generator_blocks(-gate_coefficients(g, basis), n)
        parts += blocks
        held += 1
        entries += sum(block.size for _, _, block in blocks)
        if held == _CHUNK or entries >= _CHUNK_ENTRIES:
            _apply_blocks(eta, parts)
            parts, held, entries = [], 0, 0
    _apply_blocks(eta, parts)
    return eta


def simulate(gates, state: ProductState, k: int, unitary: bool | None = None,
             tol: float = 1e-9) -> SimResult:
    n = state.n
    t0 = time.perf_counter()
    gates = list(gates)
    value = expectation(state, heisenberg_observable(gates, k, n))
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
