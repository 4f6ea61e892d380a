"""Dense state-vector oracle, the ground truth for small-n cross-checks.

State vectors index the computational basis with line 1 as the most
significant bit.  The oracle refuses to run beyond MAX_LINES qubit lines: it
exists to verify the polynomial-time engines, not to compete with them.

Gate application exponentiates each gate's Pauli expansion only on its
support lines, so circuits whose gates touch a bounded number of lines stay
cheap even near the cap.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, MgsimError, SizeLimitError
from .exponents import GateExponent, to_pauli_sum
from .jw import PARITY, JwFamily
from .pauli import PauliSum, ProductState

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


def _support_lines(ps: PauliSum) -> list[int]:
    mask = 0
    for x, z in ps.terms:
        mask |= x | z
    return [k + 1 for k in range(ps.n) if (mask >> k) & 1]


def _restrict_to_lines(ps: PauliSum, lines: list[int]) -> PauliSum:
    """Reindex a sum onto its support lines (identity elsewhere by construction)."""
    pos = {line: j for j, line in enumerate(lines)}
    out = PauliSum(max(len(lines), 1))
    for (x, z), val in ps.terms.items():
        xs = zs = 0
        for line, j in pos.items():
            if (x >> (line - 1)) & 1:
                xs |= 1 << j
            if (z >> (line - 1)) & 1:
                zs |= 1 << j
        out.terms[(xs, zs)] = out.terms.get((xs, zs), 0j) + val
    return out


def dense_gate(g: GateExponent) -> np.ndarray:
    """The full 2^n x 2^n matrix e^A of a gate exponent."""
    _check_n(g.n)
    ps = to_pauli_sum(g, JwFamily(g.n, PARITY))
    return scipy.linalg.expm(ps.to_matrix())


def apply_gate(state: np.ndarray, g: GateExponent, n: int, inverse: bool = False) -> np.ndarray:
    """Apply e^A (or e^-A) to a dense state, exponentiating on the support lines only."""
    _check_n(n)
    if g.n != n:
        raise DimensionError(f"gate has n={g.n}, state has n={n}")
    ps = to_pauli_sum(g, JwFamily(n, PARITY))
    lines = _support_lines(ps)
    if not lines:  # scalar-only gate
        scal = ps.terms.get((0, 0), 0j)
        return np.exp(-scal if inverse else scal) * np.asarray(state, dtype=complex)
    local = _restrict_to_lines(ps, lines)
    A = local.to_matrix()
    mat = scipy.linalg.expm(-A if inverse else A)
    return apply_matrix(state, mat, lines, n)


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
    psi0 = state.to_vector()
    phi = psi0
    for g in gates:
        phi = apply_gate(phi, g, n)
    zphi = apply_matrix(phi, _Z1, [k], n)
    if mode == ADJOINT:
        return complex(np.vdot(phi, zphi))
    if mode == INVERSE:
        back = zphi
        for g in reversed(gates):
            back = apply_gate(back, g, n, inverse=True)
        return complex(np.vdot(psi0, back))
    raise MgsimError(f"unknown Heisenberg mode {mode!r}; expected 'inverse' or 'adjoint'")
