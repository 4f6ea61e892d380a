"""Dense state-vector oracle, the ground truth for small-n cross-checks.

State vectors index the computational basis with line 1 as the most
significant bit.  The oracle refuses to run beyond MAX_LINES qubit lines: it
exists to verify the polynomial-time engines, not to compete with them.

Gates come as a ``circuits.Gates`` record, or as GateSpecs, parsed or
compiled, which ``circuits.as_gates`` reads into one.  A gvw, diag, mg12 or u1
gate is applied as its own matrix B, and its inverse pass as B^-1: the B of all
gvw and mg12 gates come from the record's stacks in one ``Gates.matrices``
call, and the inverses of those and of the u1 gates are taken once per
circuit, one stacked ``np.linalg.inv`` per shape.  A reshape of the state puts
the gate's lines on their own axes, so no exponential, logarithm or Pauli
expansion is taken: u1 multiplies the leading axis by U, gvw and mg12 the axis
of lines (k, k+1) by B, and diag scales the state by its four entries broadcast
over lines k and l.  Closure-only matchgates, which have no logarithm in the
span, therefore run here too.

An exp gate e^A is expanded over Pauli strings from its entries, and its
lines are split in two.  On an *active* line some term has X or Y; on a
*diagonal* line every term has I or Z (the Jordan-Wigner Z strings), so it
never mixes basis states there.  Each basis value r of the diagonal lines
gives term t a sign s_t(r) = +-1, and A is block-diagonal in r with block
sum_t s_t(r) val_t Q_t, Q_t being term t on the active lines.  Values with the
same sign pattern share one block, so a gate needs one 2^m x 2^m exponential
per pattern (m active lines, at most 2^T patterns for T terms) instead of one
over its whole support.  The split uses only Pauli algebra and is exact; a
gate whose support lines are all active is exponentiated densely.  The blocks
B of all exp gates of a circuit are exponentiated before the state is touched,
e^B and e^-B together, in one ``linalg.expm_stack`` call per block dimension.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .circuits import as_gates
from .errors import DimensionError, MgsimError, SizeLimitError
from .exponents import to_pauli_sum
from .jw import PARITY, JwFamily
from .pauli import ProductState

MAX_LINES = 12

# The most block entries one expm_stack call takes (16 MB of complex blocks).
_BATCH_ENTRIES = 1 << 20

_Z_SIGNS = np.array([[1.0], [-1.0]])  # Z on the middle axis of psi.reshape(2^(k-1), 2, -1)


def _check_n(n: int):
    if n > MAX_LINES:
        raise SizeLimitError(
            f"dense oracle capped at {MAX_LINES} lines (requested {n}); use the polynomial engines"
        )


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


class _ExpGate(NamedTuple):
    """An exp gate e^A, block-diagonal in the basis values of its diagonal lines.

    ``lines`` lists the active lines (some term has X or Y there), then the
    diagonal lines (every term has I or Z there); ``perm`` orders the state's
    line axes as ``lines`` followed by the others, and ``unperm`` undoes it.
    Diagonal-line basis values that give every term the same sign share one
    block B_p of A on the active lines; ``groups[p]`` lists those values, and
    ``exps[0][p]`` is e^B_p, ``exps[1][p]`` e^-B_p.
    """

    lines: tuple
    perm: tuple
    unperm: tuple
    groups: tuple
    exps: np.ndarray  # (2, patterns, 2^m, 2^m)

    def apply(self, state: np.ndarray, inverse: bool = False) -> np.ndarray:
        """e^A (or e^-A) on a dense state, one block per diagonal-line sign pattern."""
        dim = self.exps.shape[-1]
        n = len(self.perm)
        psi = np.asarray(state, dtype=complex).reshape((2,) * n).transpose(self.perm)
        psi = psi.reshape(dim, -1, (1 << n) >> len(self.lines))
        out = np.empty_like(psi)
        for e, rows in zip(self.exps[int(inverse)], self.groups):
            block = psi[:, rows]
            out[:, rows] = (e @ block.reshape(dim, -1)).reshape(block.shape)
        return out.reshape((2,) * n).transpose(self.unperm).reshape(-1)


def _split(entries, n: int) -> tuple[tuple, np.ndarray]:
    """Expand an exp gate's entries over Pauli strings and split its lines into active and
    diagonal: the (lines, perm, unperm, groups) of its _ExpGate, and its blocks B_p stacked."""
    terms = to_pauli_sum(entries, _family(n))
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
    lines = active + diag
    perm = [l - 1 for l in lines] + [k for k in range(n) if k + 1 not in lines]
    return (tuple(lines), tuple(perm), tuple(np.argsort(perm).tolist()), groups), blocks


class _MatrixGate(NamedTuple):
    """A gvw, diag, mg12 or u1 gate as its own matrix on its lines, and its inverse.

    ``matrix`` is U for u1, the four diagonal entries for diag and the 4x4 B
    for gvw and mg12; ``inverse`` is U^-1, the reciprocal entries or B^-1.
    """

    cls: str
    lines: tuple
    matrix: np.ndarray
    inverse: np.ndarray

    def apply(self, state: np.ndarray, inverse: bool = False) -> np.ndarray:
        """B (or B^-1) on a dense state; a reshape gives the gate's lines their own axes."""
        m = self.inverse if inverse else self.matrix
        psi = np.asarray(state, dtype=complex)
        k = self.lines[0]
        if self.cls == "u1":
            return (m @ psi.reshape(2, -1)).reshape(-1)
        if self.cls == "diag":
            l = self.lines[1]
            psi = psi.reshape(1 << (k - 1), 2, 1 << (l - k - 1), 2, -1)
            return (psi * m.reshape(2, 1, 2, 1)).reshape(-1)
        return (m @ psi.reshape(1 << (k - 1), 4, -1)).reshape(-1)


def _exponentiate(blocks: np.ndarray) -> np.ndarray:
    """e^B and e^-B of a (count, dim, dim) stack of blocks, as (2, count, dim, dim).

    One expm_stack call takes all 2 count matrices, or as many as hold
    _BATCH_ENTRIES entries when the blocks are large, so that its temporaries
    stay bounded.
    """
    both = np.concatenate([blocks, -blocks])
    step = max(1, _BATCH_ENTRIES // blocks[0].size)
    for i in range(0, len(both), step):
        both[i:i + step] = linalg.expm_stack(both[i:i + step])
    return both.reshape((2,) + blocks.shape)


def _prepare(gates, n: int) -> list:
    """The way the oracle applies each gate of a record, or of GateSpecs, on n lines.

    The matrices of all gvw and mg12 gates are built together, and the inverses of
    each class taken once: one np.linalg.inv call for the 4x4 gvw and mg12 stack, one
    for the 2x2 u1 stack, and the reciprocals of the diag entries.  The blocks of all
    exp gates are exponentiated together, one _exponentiate call per block dimension.
    """
    _check_n(n)
    gates = as_gates(gates)
    gates.check_lines(n)
    at, params = gates.at, gates.params
    B = gates.matrices(np.concatenate([at["gvw"], at["mg12"]]))
    B_inv = np.linalg.inv(B)
    g = len(at["gvw"])
    matrices = {"gvw": (B[:g], B_inv[:g]), "mg12": (B[g:], B_inv[g:]),
                "diag": (params["diag"]["d"], 1 / params["diag"]["d"]),
                "u1": (params["u1"]["U"], np.linalg.inv(params["u1"]["U"]))}
    out = [None] * len(gates)
    for cls, (stack, inverses) in matrices.items():
        for i, lines, m, inv in zip(at[cls].tolist(), gates.lines[cls].tolist(), stack,
                                    inverses):
            out[i] = _MatrixGate(cls, tuple(lines), m, inv)
    splits = {}
    for i, entries in zip(at["exp"].tolist(), gates.exp_entries()):
        layout, blocks = _split(entries, n)
        splits.setdefault(blocks.shape[-1], []).append((i, layout, blocks))
    for group in splits.values():
        exps = _exponentiate(np.concatenate([blocks for _, _, blocks in group]))
        start = 0
        for i, layout, blocks in group:
            out[i] = _ExpGate(*layout, exps[:, start:start + len(blocks)])
            start += len(blocks)
    return out


INVERSE = "inverse"
ADJOINT = "adjoint"


def expectation_heisenberg(gates, state: ProductState, k: int, mode: str = INVERSE) -> complex:
    """<psi0| C^{-1} Z_k C |psi0> (inverse mode) or <psi0| C^dag Z_k C |psi0> (adjoint).

    ``gates`` is a Gates record, or GateSpecs, parsed or compiled, in application
    order.  The two modes coincide for unitary circuits.  Adjoint mode equals
    <C psi0| Z_k |C psi0> and applies no inverse; inverse mode applies the inverse
    gates in reverse order.  The inverses are taken when the gates are prepared, so a
    singular gate, which parse refuses, fails in either mode.
    """
    n = state.n
    _check_n(n)
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    prepared = _prepare(gates, n)
    psi0 = state.to_vector()
    phi = psi0
    for gate in prepared:
        phi = gate.apply(phi)
    zphi = (phi.reshape(1 << (k - 1), 2, -1) * _Z_SIGNS).reshape(-1)
    if mode == ADJOINT:
        return complex(np.vdot(phi, zphi))
    if mode == INVERSE:
        back = zphi
        for gate in reversed(prepared):
            back = gate.apply(back, inverse=True)
        return complex(np.vdot(psi0, back))
    raise MgsimError(f"unknown Heisenberg mode {mode!r}; expected 'inverse' or 'adjoint'")
