"""Second, independent engine built on the adjoint representation of L1+2.

The linear span of the identity, the 2n generators c_mu, and the n(2n-1)
Hermitian quadratics i c_mu c_nu closes under commutators (dimension
n(2n+1) + 1, the complexified so(2n+1) plus center).  Conjugation by e^A
therefore acts on coefficient vectors over this basis as e^M, where
M = sum_j xi_j ad(B_j) for the coefficients xi of A.  Gates are exp gates, the
``circuits.Gates`` record ``circuits.compile`` writes, and xi is read off each
gate's entries.  The basis is not stored: in its order (identity, c_1..c_2n,
then i c_mu c_nu for mu < nu) an index is closed form, and ``element``
builds the Pauli string of an index on demand.

Whether two basis elements have a nonzero bracket depends only on the c
indices they share: c_mu and c_nu anticommute for mu != nu, c_mu and
i c_nu c_rho iff mu is nu or rho, and two quadratics iff they share exactly
one index.  So M is read off the gate's c-support S in closed form: one
block on the elements inside S, and for every index tau outside S one block
on the elements i c_s c_tau (s in S), joined by c_tau when A has linear
terms.  Taken with s first, the outside blocks are all equal, so each gate
has at most two distinct blocks, built from the Pauli strings of their first
rows only.  M is never formed as a dense matrix.  The blocks of a chunk of
gates are exponentiated by ``linalg.expm_stack``, one call per block size,
then applied gate by gate in order.  The propagated coefficients eta of
C^-1 Z_k C are a dense vector, so n is capped by a memory budget, and their
value on the product state is summed in numpy (``_expectation``).

The derivation is completely independent of the quadratic d-operator
transfer: no extended operator d_0 appears, the basis is exponentially
smaller than the full Pauli algebra but quadratically larger than the
d-space.  This engine exists to cross-check engine_quadratic; that one is
the performance engine.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .circuits import GATE_CLASSES, Gates, as_gates
from .engine_quadratic import SimResult
from .errors import DimensionError, GateClassError, InconsistencyError, SizeLimitError
from .jw import jw
from .pauli import PauliString, ProductState, commutation_sign, pauli_mul

ENGINE_NAME = "lie"

# The coefficient vector eta takes 16 bytes per basis element; an n whose eta
# passes this budget is refused (n <= 2896 fits), so a run stays well under 1 GB.
MAX_ETA_BYTES = 256 << 20

# Blocks are built for _CHUNK gates at a time, last gate first, or for fewer once
# they hold _CHUNK_ENTRIES entries (16 MB): expm_stack is called per chunk, and the
# blocks held stay bounded whatever the gates' supports.
_CHUNK = 256
_CHUNK_ENTRIES = 1 << 20


def dimension(n: int) -> int:
    """The number n(2n+1) + 1 of basis elements on n lines."""
    return n * (2 * n + 1) + 1


def _pair_index(n: int, mu, nu):
    """The basis index of i c_mu c_nu, mu < nu; ints or integer arrays."""
    return 2 * n + 1 + (mu - 1) * (4 * n - mu) // 2 + nu - mu - 1


def _c_indices(n: int, i: int) -> tuple:
    """The c indices of basis element i: () for the identity, (mu,) for c_mu, and
    (mu, nu) for i c_mu c_nu, inverting _pair_index."""
    if i <= 2 * n:
        return (i,) if i else ()
    # mu - 1 is the largest m with m (w - m) <= 2r, i.e. w - 2m >= ceil(sqrt(w^2 - 8r))
    r, w = i - 2 * n - 1, 4 * n - 1
    m = (w - 1 - math.isqrt(w * w - 8 * r - 1)) // 2
    return m + 1, r - m * (w - m) // 2 + m + 2


def element(n: int, i: int) -> PauliString:
    """Basis element i on n lines, a Hermitian Pauli string of scalar +1 or -1."""
    idx = _c_indices(n, i)
    if len(idx) < 2:
        return jw(n, idx[0]) if idx else PauliString(n, 0, 0)
    prod = pauli_mul(jw(n, idx[0]), jw(n, idx[1]))
    return PauliString(n, prod.x_mask, prod.z_mask, prod.phase_pow + 1)


def gate_coefficients(entries, n: int) -> tuple[tuple, np.ndarray]:
    """The nonzero coefficients of an exp gate's A = sum 2a c c + sum b c + s on n lines,
    from its entries [((mu, nu), value)] in any order: ascending basis indices and their
    values xi, with A = s + sum xi_j B_j (s, on the identity, commutes with everything)."""
    # b_sigma is on c_sigma; 2a c_mu c_nu = -2i a * (i c_mu c_nu)
    terms = sorted(((_pair_index(n, mu, nu), -2j * val) if mu else (nu, val)
                    for (mu, nu), val in entries if val != 0 and nu), key=lambda term: term[0])
    return tuple(j for j, _ in terms), np.array([val for _, val in terms], dtype=complex)


# A plan depends only on n and the gate's basis indices; 512 holds every distinct plan of
# a crosscheck pass (280) while bounding what a run at large n keeps.
@lru_cache(maxsize=512)
def _block_plan(n: int, terms: tuple) -> tuple:
    """How M = sum_j xi_j ad(B_j) splits into blocks, for xi on the ascending basis
    indices ``terms``.

    With S the c indices the terms touch, M is block diagonal over the inside
    block (c_s and i c_s c_t for s < t in S) and, for each tau outside S, an
    outside block: the oriented elements i c_s c_tau for s in S, plus c_tau
    when some term is linear.  An oriented element is the stored
    i c_min c_max times sign = -1 where s > tau; in that orientation all
    outside blocks are equal, so their entries are computed for the first
    tau only, from the exact Pauli product of each term with each element.

    Returns one (idx, sign, flat, pos, val) per part, the inside one first: the
    part's s x s generator is ``block.flat[flat] = xi[pos] * val``, for xi the
    values of the terms, and the rows of idx and sign (the inside part's one,
    the outside part's one per tau) give the basis indices it acts on and their
    signs.
    """
    S = sorted({mu for j in terms for mu in _c_indices(n, j)})
    parts = []
    if S:
        inside = S + [_pair_index(n, s, t) for s, t in combinations(S, 2)]
        parts.append((np.array([inside]), np.ones((1, len(inside)))))
        tau = np.delete(np.arange(1, 2 * n + 1), np.array(S) - 1)[:, None]
        if len(tau):
            S = np.array(S)
            outside = _pair_index(n, np.minimum(S, tau), np.maximum(S, tau))
            sign = np.where(S < tau, 1.0, -1.0)
            if terms[0] <= 2 * n:  # terms ascend, so the gate has linear terms
                outside, sign = np.hstack([outside, tau]), np.hstack([sign, np.ones(tau.shape)])
            parts.append((outside, sign))
    gens = [element(n, j) for j in terms]
    plan = []
    for idx, sign in parts:
        size = idx.shape[1]
        rep = [(element(n, i), sg) for i, sg in zip(idx[0].tolist(), sign[0].tolist())]
        where = {(e.x_mask, e.z_mask): (q, sg * e.scalar) for q, (e, sg) in enumerate(rep)}
        flat, pos, vals = [], [], []
        for p, gen in enumerate(gens):
            for q, (e, sg) in enumerate(rep):
                if commutation_sign(gen, e) == 1:
                    continue
                prod = pauli_mul(gen, e)  # [B_j, B_i] = 2 B_j B_i here
                hit = where.get((prod.x_mask, prod.z_mask))
                if hit is None:
                    raise InconsistencyError(
                        f"commutator of basis elements {terms[p]}, {idx[0, q]} left their block"
                    )
                row, scal = hit
                flat.append(row * size + q)
                pos.append(p)
                vals.append(2 * sg * prod.scalar / scal)
        plan.append((idx, sign, np.array(flat, dtype=np.intp), np.array(pos, dtype=np.intp),
                     np.array(vals, dtype=complex)))
    return tuple(plan)


def _generator_blocks(terms: tuple, xi: np.ndarray, n: int) -> list:
    """The blocks of M for the values xi on the basis indices ``terms``, one
    (idx, sign, block) per part of _block_plan, each block of its part's own size."""
    out = []
    for idx, sign, flat, pos, val in _block_plan(n, terms):
        size = idx.shape[1]
        block = np.zeros(size * size, dtype=complex)
        block[flat] = xi[pos] * val
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


def _propagate(gates: Gates, k: int, n: int) -> np.ndarray:
    """The coefficients eta of C^{-1} Z_k C over the basis, through adjoint transfers."""
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    if 16 * dimension(n) > MAX_ETA_BYTES:
        raise SizeLimitError(
            f"Lie engine capped at {MAX_ETA_BYTES} bytes of coefficients: n={n} lines need "
            f"{16 * dimension(n)}; use the quadratic engine"
        )
    other = np.flatnonzero(gates.order != GATE_CLASSES.index("exp")).tolist()
    if other:
        raise GateClassError(f"gate {other[0] + 1} is a {GATE_CLASSES[gates.order[other[0]]]} "
                             "gate; compile the circuit first: the Lie engine reads exp gates")
    gates.check_lines(n)
    eta = np.zeros(dimension(n), dtype=complex)
    eta[_pair_index(n, 2 * k - 1, 2 * k)] = -1.0  # Z_k = -(i c_{2k-1} c_{2k})
    parts, held, entries = [], 0, 0
    for gate in reversed(gates.exp_entries()):
        # g^{-1} O g is the adjoint action of e^{-A}
        terms, xi = gate_coefficients(gate, n)
        blocks = _generator_blocks(terms, -xi, n)
        parts += blocks
        held += 1
        entries += sum(block.size for _, _, block in blocks)
        if held == _CHUNK or entries >= _CHUNK_ENTRIES:
            _apply_blocks(eta, parts)
            parts, held, entries = [], 0, 0
    _apply_blocks(eta, parts)
    return eta


def _expectation(eta: np.ndarray, state: ProductState) -> complex:
    """sum_i eta_i <psi0| B_i |psi0> on a product state.

    <c_{2k-1}>, <c_{2k}> are prod_{j<k} <Z_j> times <X_k>, <Y_k>.  For mu < nu on
    lines k < l, <i c_mu c_nu> = f_mu prod_{k<j<l} <Z_j> g_nu, with f = <Y_k>, -<X_k>
    and g = <X_l>, <Y_l> for odd, even indices; on one line i c_{2k-1} c_{2k} = -Z_k.
    The pairs are summed by rows of fixed mu, contiguous in eta, in one scan from
    line n down to 1 that carries each g_nu times the <Z_j> passed: it only
    multiplies, so a vanishing product of <Z_j> underflows to 0 instead of dividing.
    """
    n = state.n
    e = state.single_line_expectations()
    ex, ey, ez = e["X"], e["Y"], e["Z"]
    prefix = np.cumprod(np.concatenate(([1.0 + 0j], ez[:-1])))
    total = eta[0] + eta[1:2 * n + 1:2] @ (prefix * ex) + eta[2:2 * n + 1:2] @ (prefix * ey)
    ex, ey, ez = ex.tolist(), ey.tolist(), ez.tolist()
    carried = np.zeros(2 * n, dtype=complex)  # g_nu prod <Z_j>, for nu on lines after k
    for k in range(n, 0, -1):
        # eta[start] is i c_{2k-1} c_{2k}; then come rows 2k-1 and 2k over nu = 2k+1..2n
        start, width = _pair_index(n, 2 * k - 1, 2 * k), 2 * (n - k)
        rest = carried[2 * k:]
        odd, even = eta[start + 1:start + 2 * width + 1].reshape(2, width) @ rest
        total += ey[k - 1] * odd - ex[k - 1] * even - ez[k - 1] * eta[start]
        rest *= ez[k - 1]
        carried[2 * k - 2:2 * k] = ex[k - 1], ey[k - 1]
    return complex(total)


def simulate(gates, state: ProductState, k: int, unitary: bool | None = None,
             tol: float = 1e-9) -> SimResult:
    n = state.n
    t0 = time.perf_counter()
    gates = as_gates(gates)
    value = _expectation(_propagate(gates, k, n), state)
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
