"""Dense state-vector oracle, the ground truth for small-n cross-checks.

State vectors index the computational basis with line 1 as the most
significant bit.  The oracle refuses to run beyond MAX_LINES qubit lines: it
exists to verify the polynomial-time engines, not to compete with them.

Gate application expands each gate exponent A over Pauli strings and splits
its lines in two.  On an *active* line some term has X or Y; on a *diagonal*
line every term has I or Z (the Jordan-Wigner Z strings), so it never mixes
basis states there.  Each basis value r of the diagonal lines gives term t a
sign s_t(r) = +-1, and A is block-diagonal in r with block
sum_t s_t(r) val_t Q_t, Q_t being term t on the active lines.  Values with the
same sign pattern share one block, so a gate costs one 2^m x 2^m exponential
per pattern (m active lines, at most 2^T patterns for T terms) instead of one
over its whole support.  The split uses only Pauli algebra and is exact; a
gate whose support lines are all active is exponentiated densely, as before.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionError, MgsimError, SizeLimitError
from .exponents import GateExponent, to_pauli_sum
from .jw import PARITY, JwFamily
from .pauli import ProductState

MAX_LINES = 12

_Z1 = np.array([[1, 0], [0, -1]], dtype=complex)


def _check_n(n: int):
    if n > MAX_LINES:
        raise SizeLimitError(
            f"dense oracle capped at {MAX_LINES} lines (requested {n}); use the polynomial engines"
        )


def apply_matrix(state: np.ndarray, matrix: np.ndarray, lines, n: int) -> np.ndarray:
    """Apply a 2^m x 2^m matrix to the given (1-based, distinct) lines."""
    _check_n(n)
    lines = list(lines)
    m = len(lines)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (1 << m, 1 << m):
        raise DimensionError(f"matrix shape {matrix.shape} does not act on {m} lines")
    if len(set(lines)) != m or not all(1 <= l <= n for l in lines):
        raise DimensionError(f"lines {lines} invalid for n={n}")
    psi = np.asarray(state, dtype=complex).reshape((2,) * n)
    axes = [l - 1 for l in lines]
    psi = np.moveaxis(psi, axes, range(m))
    shape = psi.shape
    psi = matrix @ psi.reshape(1 << m, -1)
    psi = np.moveaxis(psi.reshape(shape), range(m), axes)
    return psi.reshape(-1)


@lru_cache(maxsize=None)
def _family(n: int) -> JwFamily:
    return JwFamily(n, PARITY)


def _gather(mask: int, lines) -> int:
    """The bits of ``mask`` on the given lines, first line as the most significant bit."""
    out = 0
    for line in lines:
        out = (out << 1) | ((mask >> (line - 1)) & 1)
    return out


def _signs(masks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """sign[t, i] = (-1)^popcount(masks[t] & index[i]), the eigenvalue of a Z string."""
    v = masks[:, None] & index
    parity = np.zeros_like(v)
    while v.any():
        parity ^= v & 1
        v = v >> 1
    return 1 - 2 * parity


class _Split(NamedTuple):
    """A gate exponent A, block-diagonal in the basis values of its diagonal lines.

    ``lines`` lists the active lines (some term has X or Y there), then the
    diagonal lines (every term has I or Z there).  Diagonal-line basis values
    that give every term the same sign share one block ``blocks[p]`` of A on
    the active lines; ``groups[p]`` lists those values.
    """

    lines: tuple
    groups: tuple
    blocks: np.ndarray  # (patterns, 2^m, 2^m)


def _split(g: GateExponent, n: int) -> _Split:
    """Expand a gate over Pauli strings and split its lines into active and diagonal."""
    _check_n(n)
    if g.n != n:
        raise DimensionError(f"gate has n={g.n}, state has n={n}")
    terms = to_pauli_sum(g, _family(n)).terms
    flip = support = 0
    for x, z in terms:
        flip |= x
        support |= x | z
    active = [k + 1 for k in range(n) if (flip >> k) & 1]
    diag = [k + 1 for k in range(n) if ((support & ~flip) >> k) & 1]

    def gathered(masks, lines):
        return np.array([_gather(mask, lines) for mask in masks], dtype=np.int64)

    xs, zs = [x for x, _ in terms], [z for _, z in terms]
    # sign[t, r] of term t on diagonal-line value r; equal columns share a block
    sign = _signs(gathered(zs, diag), np.arange(1 << len(diag)))
    by_pattern = {}
    for r, column in enumerate(sign.T):
        by_pattern.setdefault(column.tobytes(), []).append(r)
    groups = tuple(np.array(rows) for rows in by_pattern.values())
    patterns = sign[:, [rows[0] for rows in groups]]
    # a Pauli string maps |i> to i^{|x&z|} (-1)^{|z&i|} |i ^ x> on the active lines
    cols = np.arange(1 << len(active))
    phases = np.array([val * 1j ** (x & z).bit_count() for (x, z), val in terms.items()])
    columns = phases.reshape(-1, 1) * _signs(gathered(zs, active), cols)
    blocks = np.zeros((len(groups), len(cols), len(cols)), dtype=complex)
    for t, xa in enumerate(gathered(xs, active)):
        blocks[:, cols ^ xa, cols] += patterns[t][:, None] * columns[t]
    return _Split(tuple(active + diag), groups, blocks)


def _apply_split(state: np.ndarray, sg: _Split, n: int, inverse: bool = False) -> np.ndarray:
    """Apply e^A (or e^-A) to a dense state, one block per diagonal-line sign pattern."""
    exps = scipy.linalg.expm(-sg.blocks if inverse else sg.blocks)
    dim = sg.blocks.shape[-1]
    axes = [l - 1 for l in sg.lines]
    psi = np.moveaxis(np.asarray(state, dtype=complex).reshape((2,) * n), axes, range(len(axes)))
    shape = psi.shape
    psi = psi.reshape(dim, -1, (1 << n) >> len(axes))
    out = np.empty_like(psi)
    for e, rows in zip(exps, sg.groups):
        block = psi[:, rows]
        out[:, rows] = (e @ block.reshape(dim, -1)).reshape(block.shape)
    return np.moveaxis(out.reshape(shape), range(len(axes)), axes).reshape(-1)


def dense_gate(g: GateExponent) -> np.ndarray:
    """The full 2^n x 2^n matrix e^A of a gate exponent."""
    _check_n(g.n)
    ps = to_pauli_sum(g, _family(g.n))
    return scipy.linalg.expm(ps.to_matrix())


def apply_gate(state: np.ndarray, g: GateExponent, n: int, inverse: bool = False) -> np.ndarray:
    """Apply e^A (or e^-A) to a dense state, exponentiating on the active lines only."""
    return _apply_split(state, _split(g, n), n, inverse)


def run_circuit(gates, state: ProductState, n: int) -> np.ndarray:
    """Dense final state C|psi0> for a compiled gate list."""
    _check_n(n)
    psi = state.to_vector()
    for g in gates:
        psi = apply_gate(psi, g, n)
    return psi


INVERSE = "inverse"
ADJOINT = "adjoint"


def expectation_heisenberg(gates, state: ProductState, k: int, mode: str = INVERSE) -> complex:
    """<psi0| C^{-1} Z_k C |psi0> (inverse mode) or <psi0| C^dag Z_k C |psi0> (adjoint).

    The two modes coincide for unitary circuits.  Adjoint mode equals
    <C psi0| Z_k |C psi0> and needs no inverses; inverse mode applies the
    inverse gates in reverse order and fails on singular gates.
    """
    n = state.n
    _check_n(n)
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    splits = [_split(g, n) for g in gates]
    psi0 = state.to_vector()
    phi = psi0
    for sg in splits:
        phi = _apply_split(phi, sg, n)
    zphi = apply_matrix(phi, _Z1, [k], n)
    if mode == ADJOINT:
        return complex(np.vdot(phi, zphi))
    if mode == INVERSE:
        back = zphi
        for sg in reversed(splits):
            back = _apply_split(back, sg, n, inverse=True)
        return complex(np.vdot(psi0, back))
    raise MgsimError(f"unknown Heisenberg mode {mode!r}; expected 'inverse' or 'adjoint'")
