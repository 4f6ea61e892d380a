"""Heisenberg-picture engine over the (2n+1)-dimensional d-operator space.

Each gate B acts on the generators by conjugation, B^{-1} d_a B = sum_b K_ab d_b,
with a (2n+1) x (2n+1) transfer K that differs from the identity only on the
gate's support.  For the matrix gate classes (gvw, diag, mg12, u1) the block
is read straight off the gate matrix as K_ab = 1/4 tr(d_a B^{-1} d_b B) over
the five two-line operators d_0..d_4 (Jozsa & Miyake, arXiv:0804.4050): no
logarithm is taken, so every invertible matchgate is accepted, including
those that are only limits of exponentials.  Only `exp` gates, parsed or
compiled, go through their exponent as K = exp(X), X = -4 atilde.  Here
atilde is the exponent made purely quadratic in the d's: atilde_{mu,nu} =
a_{mu,nu} for mu, nu >= 1 and atilde_{0,sigma} = i b_sigma / 2, so that
A = sum_{mu<nu} 2 atilde_{mu,nu} d_mu d_nu + s, the linear terms becoming
d_0 d_sigma = -i c_sigma; the block covers d_0 only when b is nonempty.
When X is exactly real antisymmetric, as on every unitary exp gate, iX is
Hermitian and K = V diag(e^{-i lam}) V^H comes from numpy's eigh of iX; any
other block takes ``linalg.expm_stack``, Pade scaling and squaring in numpy.
Blocks are built a chunk of gates at a time and class by class, so numpy is
called per chunk, not per gate: the matrix-class gates of a chunk share one
stacked inverse, its real antisymmetric exp blocks one stacked eigh per block
size, and its other exp blocks one expm_stack call per block size.
K^T = K^{-1} in both cases, so conjugating by the gate inverse (the
non-unitary generalisation of the usual adjoint) uses the same K matrices;
the engine always computes <psi0| C^{-1} Z_k C |psi0>, which coincides with
the Born-rule quantity for unitary circuits.

The measured Z_k = -i d_mu d_nu, with mu = 2k-1 and nu = 2k, is quadratic, so
C^{-1} Z_k C = -i (K d)_mu (K d)_nu needs only the two columns u = K e_mu and
v = K e_nu of the circuit's total transfer K = K_1 ... K_G.  They are
propagated through the gates in reverse, each gate touching only its support
rows.  So the columns depend only on the gates in Z_k's backward light cone:
walking the gates last first from the cone {mu, nu}, a gate whose support
meets the cone is kept and widens it, and any other gate is skipped before its
block is built, since it would only multiply rows that are still exactly zero.
The value is -i u^T m v with m[a, b] = <psi0| d_a d_b |psi0>; on a product
state m is semiseparable, so one left-to-right scan evaluates it, over the
lines from the lowest to the highest one that u and v touch.

The gates come as a ``circuits.Gates`` record, parsed or compiled; GateSpecs, as in
tests, are read into one by ``circuits.as_gates``.  Every gate's support is read off
the record's line arrays and exp entries; a kept matrix gate's B is built from its
class's stacks, and a kept exp gate's X from its entries.

Cost: O(G + sum_{kept g} s_g^2 + w) time for G gates, kept gates of support
s_g and a scan over w <= n lines, on top of the O(n) columns; O(n + G + _CHUNK)
memory.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuits import GATE_CLASSES, Gates, as_gates
from .errors import DimensionError, InconsistencyError
from .jw import JwFamily
from .pauli import ProductState

ENGINE_NAME = "quadratic"


@dataclass(frozen=True)
class SimResult:
    expectation: complex
    p0: float | None
    p1: float | None
    engine: str
    gates: int
    ms: float

    @classmethod
    def from_value(cls, value: complex, engine: str, gates: int, ms: float,
                   unitary: bool | None, tol: float) -> "SimResult":
        """Populations p0, p1 when the value is real; a domain error when it is not finite,
        or not real on a unitary circuit."""
        value = complex(value)
        if not cmath.isfinite(value):
            raise InconsistencyError(f"{engine} engine produced a non-finite expectation {value!r}")
        p0 = p1 = None
        if abs(value.imag) <= tol * max(1.0, abs(value)):
            p0 = (1.0 + value.real) / 2.0
            p1 = (1.0 - value.real) / 2.0
        elif unitary:
            raise InconsistencyError(f"unitary circuit produced a non-real expectation {value!r}")
        return cls(value, p0, p1, engine, gates, ms)


# d_0..d_4 on two lines as 4x4 matrices, and their transposes flattened, so
# that _D2T @ M.reshape(5, 16).T is the matrix of traces tr(d_a M_b).
_D2 = np.array([JwFamily(2).d(mu).to_matrix() for mu in range(5)])
_D2T = _D2.transpose(0, 2, 1).reshape(5, 16)
# Each d_b, a Pauli string, has one nonzero entry per column l, in row _D2_ROW[b, l]
# and of value _D2_PHASE[b, l]; so M d_b is a gather of M's columns, with no sums.
_D2_ROW = np.abs(_D2).argmax(axis=1)
_D2_PHASE = np.take_along_axis(_D2, _D2_ROW[:, None, :], axis=1)[:, 0, :]

# Blocks are built for this many gates at a time, last chunk first, so that
# numpy's per-call cost is paid per chunk while the blocks held stay O(_CHUNK).
_CHUNK = 256


# The support d indices of the classes on fixed lines: mg12 acts on d_0..d_4, and
# u1's U (x) I commutes with d_3, d_4.
_FIXED_SUPPORT = {"mg12": [0, 1, 2, 3, 4], "u1": [0, 1, 2]}
_EXP = GATE_CLASSES.index("exp")


def _supports(gates: Gates, entries: list, n: int) -> list[list[int]]:
    """The support d indices of each gate's block, sorted, in application order, with
    ``entries`` the record's exp_entries; a DimensionError when a gate leaves the n lines.

    gvw and diag preserve parity, so their support is the four indices of their two
    lines, without d_0.  An exp gate's support is d_0 (only when b has a nonzero
    entry) and the indices of its nonzero coefficients.
    """
    gates.check_lines(n)
    out = [None] * len(gates)
    for cls, pos in gates.at.items():
        if cls in _FIXED_SUPPORT:
            for i in pos.tolist():
                out[i] = _FIXED_SUPPORT[cls]
        elif cls == "exp":
            for i, terms in zip(pos.tolist(), entries):
                # mu is 0 on b's entries, d_0; s, on (0, 0), has no index
                out[i] = sorted({mu for pair, val in terms if val != 0 and pair[1] for mu in pair})
        else:
            for i, (k, l) in zip(pos.tolist(), gates.lines[cls].tolist()):
                out[i] = [2 * k - 1, 2 * k, 2 * l - 1, 2 * l]
    return out


def _matrix_blocks(B: np.ndarray, classes) -> list[np.ndarray]:
    """Blocks K_ab = 1/4 tr(d_a B^{-1} d_b B) of a (G, 4, 4) stack of matrix-class
    gates of the given classes, through one stacked inverse, one stacked product and
    one contraction against _D2T.

    The Z strings left of (and, for diag, between) a gate's lines commute with
    B, so the two-line K carries over to the gate's global d indices.
    """
    inv_d = np.linalg.inv(B)[:, :, _D2_ROW].transpose(0, 2, 1, 3) * _D2_PHASE[:, None, :]
    M = inv_d @ B[:, None]  # M[g, b] = B_g^{-1} d_b B_g
    K = 0.25 * (_D2T @ M.reshape(-1, 5, 16).transpose(0, 2, 1))
    out = []
    for cls, k in zip(classes, K):
        if cls == "mg12":
            out.append(k)
        elif cls == "u1":
            out.append(k[:3, :3])
        else:  # gvw and diag: d_0 is untouched
            out.append(k[1:, 1:])
    return out


def _exp_generators(exps) -> dict[int, tuple[list, np.ndarray]]:
    """X = -4 atilde of exp gates given as (support, entries) pairs, with atilde_{mu,nu} =
    a_{mu,nu} and atilde_{0,sigma} = i b_sigma / 2 for each nonzero coefficient, grouped
    by block size: size -> ([(position, support)], (G, size, size) stack of X).
    """
    groups = {}
    for j, (idx, terms) in enumerate(exps):
        if not idx:
            continue  # e^A is a scalar: K is the identity
        pos = {mu: p for p, mu in enumerate(idx)}
        gates, entries = groups.setdefault(len(idx), ([], []))
        entries += [(len(gates), pos[mu], pos[nu], val if mu else 0.5j * val)
                    for (mu, nu), val in terms if val != 0 and nu]
        gates.append((j, idx))
    out = {}
    for size, (gates, entries) in groups.items():
        g, r, c, val = zip(*entries)
        m = np.zeros((len(gates), size, size), dtype=complex)
        m[g, r, c] = val
        m[g, c, r] = -np.array(val)
        out[size] = (gates, -4.0 * m)
    return out


def _exp_blocks(exps) -> list[tuple[int, list[int], np.ndarray]]:
    """(position, support, K = e^X) of exp gates given as (support, entries) pairs.

    When X is exactly real antisymmetric (every unitary exp gate), iX is Hermitian
    and K = V diag(e^{-i lam}) V^H comes from one stacked eigh per block size;
    the other blocks of a size take one linalg.expm_stack call.
    """
    out = []
    for gates, X in _exp_generators(exps).values():
        Xr = X.real
        real = ~X.imag.any(axis=(1, 2)) & (Xr == -Xr.transpose(0, 2, 1)).all(axis=(1, 2))
        if real.any():
            lam, V = np.linalg.eigh(1j * Xr[real])
            K = ((V * np.exp(-1j * lam)[:, None, :]) @ V.conj().transpose(0, 2, 1)).real
            out += [(*gate, k) for gate, k in zip(itertools.compress(gates, real), K)]
        if not real.all():
            K = linalg.expm_stack(X[~real])
            out += [(*gate, k) for gate, k in zip(itertools.compress(gates, ~real), K)]
    return out


def _blocks(gates: Gates, kept: list, supports: list, entries: list) -> list[tuple]:
    """Support d indices and the transfer restricted to them, in order, for the gates at
    positions ``kept``, read class by class: the matrix-class gates from the record's
    stacks through one stacked inverse, the exp gates from their ``entries`` (the record's
    exp_entries).  None for an exp gate whose e^A is a scalar."""
    pos = np.array(kept, dtype=np.intp)
    codes = gates.order[pos].tolist()
    matrix = [j for j, code in enumerate(codes) if code != _EXP]
    exp_at = [j for j, code in enumerate(codes) if code == _EXP]
    blocks = [None] * len(kept)
    if matrix:
        classes = [GATE_CLASSES[codes[j]] for j in matrix]
        for j, block in zip(matrix, _matrix_blocks(gates.matrices(pos[matrix]), classes)):
            blocks[j] = (supports[kept[j]], block)
    if exp_at:
        ranks = np.searchsorted(gates.at["exp"], pos[exp_at]).tolist()
        exps = [(supports[kept[j]], entries[r]) for j, r in zip(exp_at, ranks)]
        for j, idx, K in _exp_blocks(exps):
            blocks[exp_at[j]] = (idx, K)
    return [b for b in blocks if b is not None]


def _observable_indices(k: int, n: int) -> tuple[int, int]:
    """(mu, nu) with Z_k = -i d_mu d_nu."""
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    return 2 * k - 1, 2 * k


def _propagate_columns(gates: Gates, n: int, mu: int, nu: int) -> np.ndarray:
    """Columns mu and nu of K_1 ... K_G as a (2n+1) x 2 array.

    The gates are walked last first from the cone {mu, nu}.  A gate whose support
    misses the cone would only multiply rows that are still exactly zero, so it is
    skipped; a gate that meets it adds its support to the cone.  Blocks are built
    for _CHUNK kept gates at a time.
    """
    entries = gates.exp_entries()
    supports = _supports(gates, entries, n)
    cols = np.zeros((2 * n + 1, 2), dtype=complex)
    cols[mu, 0] = cols[nu, 1] = 1.0
    cone = {mu, nu}
    kept = []
    for i in range(len(supports) - 1, -1, -1):
        idx = supports[i]
        if cone.isdisjoint(idx):
            continue
        cone.update(idx)
        kept.append(i)
        if len(kept) == _CHUNK:
            _apply_blocks(cols, _blocks(gates, kept, supports, entries))
            kept = []
    if kept:
        _apply_blocks(cols, _blocks(gates, kept, supports, entries))
    return cols


def _apply_blocks(cols: np.ndarray, blocks) -> None:
    """cols[idx] = block @ cols[idx] for each (idx, block) in turn."""
    for idx, block in blocks:
        if idx[-1] - idx[0] == len(idx) - 1:  # a slice costs less than an index list
            idx = slice(idx[0], idx[-1] + 1)
        cols[idx] = block @ cols[idx]


def _pair_form(u: np.ndarray, v: np.ndarray, state: ProductState) -> complex:
    """u^T m v with m[a, b] = <psi0| d_a d_b |psi0> (a != b; m is antisymmetric).

    For a < b on different sites p < q (d_0 counted as site 0),
    m[a, b] = left_a * prod_{p<j<q} <Z_j> * right_b, with left = -i on d_0,
    -i<Y_p> on d_{2p-1} and i<X_p> on d_{2p}, and right = <X_q>, <Y_q> on
    d_{2q-1}, d_{2q}; on one site m[2q-1, 2q] = i<Z_q>.  The accumulators
    carry sum_a left_a u_a (resp. v_a) times the Z products up to the current
    site, so the scan only multiplies and adds: a vanishing product of many
    small <Z_j> underflows to 0 instead of dividing.

    The scan covers only the lines from the lowest to the highest one that u or v
    touches, from line 1 when d_0 is touched: before them the accumulators are
    zero, and after them nothing is added.
    """
    touched = np.flatnonzero((u != 0) | (v != 0))
    if not touched.size:
        return 0j
    lo, hi = max(int(touched[0]) - 1, 0) // 2, (int(touched[-1]) + 1) // 2  # lines lo+1..hi
    e = state.single_line_expectations()
    ex, ey, ez = (e[p][lo:hi].tolist() for p in "XYZ")
    acc_u, acc_v = -1j * complex(u[0]), -1j * complex(v[0])
    u, v = u[2 * lo + 1:2 * hi + 1].tolist(), v[2 * lo + 1:2 * hi + 1].tolist()
    total = 0j
    for q in range(hi - lo):
        a, b = 2 * q, 2 * q + 1
        total += (ex[q] * (v[a] * acc_u - u[a] * acc_v) + ey[q] * (v[b] * acc_u - u[b] * acc_v)
                  + 1j * ez[q] * (u[a] * v[b] - u[b] * v[a]))
        acc_u = acc_u * ez[q] - 1j * ey[q] * u[a] + 1j * ex[q] * u[b]
        acc_v = acc_v * ez[q] - 1j * ey[q] * v[a] + 1j * ex[q] * v[b]
    return total


def simulate(gates, state: ProductState, k: int, unitary: bool | None = None,
             tol: float = 1e-9) -> SimResult:
    """<psi0| C^{-1} Z_k C |psi0> in poly(n) time.

    ``gates`` is a Gates record, or GateSpecs, parsed or compiled, in application order,
    which ``circuits.as_gates`` reads into one.
    """
    n = state.n
    t0 = time.perf_counter()
    gates = as_gates(gates)
    cols = _propagate_columns(gates, n, *_observable_indices(k, n))
    value = -1j * _pair_form(cols[:, 0], cols[:, 1], state)
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
