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

Cost: O(G + sum_{kept g} s_g^2 + w) time for G gates, kept gates of support
s_g and a scan over w <= n lines, on top of the O(n) columns; O(n + _CHUNK)
memory.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .circuits import gate_matrices
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


def _read_gate(g, n: int) -> tuple[list[int], list | None]:
    """Support d indices of a GateSpec's block and, for an exp gate, its atilde entries
    [((mu, nu), atilde_{mu,nu})]; a DimensionError when the gate leaves the n lines.

    gvw and diag preserve parity, so their support is the four indices of their two
    lines, without d_0.  An exp gate's support is d_0 (only when b has a nonzero
    entry) and the indices of its nonzero coefficients, sorted; atilde_{mu,nu} =
    a_{mu,nu}, atilde_{0,sigma} = i b_sigma / 2.
    """
    if max(g.lines, default=0) > n:
        raise DimensionError(f"gate on lines {g.lines}, circuit has n={n}")
    if g.cls != "exp":
        if g.cls in _FIXED_SUPPORT:
            return _FIXED_SUPPORT[g.cls], None
        a, b = g.lines
        return [2 * a - 1, 2 * a, 2 * b - 1, 2 * b], None
    atilde = ([(pair, val) for pair, val in g.param("a") if val != 0]
              + [((0, sigma), 0.5j * val) for sigma, val in g.param("b") if val != 0])
    idx = sorted({mu for pair, _ in atilde for mu in pair})
    if idx and idx[-1] > 2 * n:
        raise DimensionError(f"exp gate on d index {idx[-1]}, circuit has n={n}")
    return idx, atilde


def _matrix_blocks(read) -> list[tuple[list[int], np.ndarray]]:
    """Blocks K_ab = 1/4 tr(d_a B^{-1} d_b B) of matrix-class gates given as
    (spec, support) pairs, through one stacked inverse, one stacked product and one
    contraction against _D2T.

    The Z strings left of (and, for diag, between) a gate's lines commute with
    B, so the two-line K carries over to the gate's global d indices.
    """
    B = gate_matrices([spec for spec, _ in read])
    inv_d = np.linalg.inv(B)[:, :, _D2_ROW].transpose(0, 2, 1, 3) * _D2_PHASE[:, None, :]
    M = inv_d @ B[:, None]  # M[g, b] = B_g^{-1} d_b B_g
    K = 0.25 * (_D2T @ M.reshape(-1, 5, 16).transpose(0, 2, 1))
    out = []
    for (spec, idx), k in zip(read, K):
        if spec.cls == "mg12":
            out.append((idx, k))
        elif spec.cls == "u1":
            out.append((idx, k[:3, :3]))
        else:  # gvw and diag: d_0 is untouched
            out.append((idx, k[1:, 1:]))
    return out


def _exp_generators(exps) -> dict[int, tuple[list, np.ndarray]]:
    """X = -4 atilde of exp gates given as (support, atilde) pairs from _read_gate,
    grouped by block size: size -> ([(position, support)], (G, size, size) stack of X).
    """
    groups = {}
    for j, (idx, atilde) in enumerate(exps):
        if not idx:
            continue  # e^A is a scalar: K is the identity
        pos = {mu: p for p, mu in enumerate(idx)}
        gates, entries = groups.setdefault(len(idx), ([], []))
        entries += [(len(gates), pos[mu], pos[nu], val) for (mu, nu), val in atilde]
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
    """(position, support, K = e^X) of exp gates given as (support, atilde) pairs.

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


def _blocks(read) -> list[tuple[list[int], np.ndarray]]:
    """Support d indices and the transfer restricted to them, in order, for gates given
    as _read_gate's (spec, support, atilde) triples; built class by class, and none
    for an exp gate whose e^A is a scalar."""
    matrix, exps, exp_at = [], [], []
    for i, (_, idx, atilde) in enumerate(read):
        if atilde is None:
            matrix.append(i)
        else:
            exps.append((idx, atilde))
            exp_at.append(i)
    blocks = [None] * len(read)
    if matrix:
        for i, block in zip(matrix, _matrix_blocks([read[i][:2] for i in matrix])):
            blocks[i] = block
    for j, idx, K in _exp_blocks(exps):
        blocks[exp_at[j]] = (idx, K)
    return [b for b in blocks if b is not None]


def _observable_indices(k: int, n: int) -> tuple[int, int]:
    """(mu, nu) with Z_k = -i d_mu d_nu."""
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    return 2 * k - 1, 2 * k


def _propagate_columns(gates, n: int, mu: int, nu: int) -> np.ndarray:
    """Columns mu and nu of K_1 ... K_G as a (2n+1) x 2 array.

    The gates are walked last first from the cone {mu, nu}.  A gate whose support
    misses the cone would only multiply rows that are still exactly zero, so it is
    skipped; a gate that meets it adds its support to the cone.  Blocks are built
    for _CHUNK kept gates at a time.
    """
    cols = np.zeros((2 * n + 1, 2), dtype=complex)
    cols[mu, 0] = cols[nu, 1] = 1.0
    cone = {mu, nu}
    kept = []
    for g in reversed(gates):
        idx, atilde = _read_gate(g, n)
        if cone.isdisjoint(idx):
            continue
        cone.update(idx)
        kept.append((g, idx, atilde))
        if len(kept) == _CHUNK:
            _apply_blocks(cols, _blocks(kept))
            kept = []
    _apply_blocks(cols, _blocks(kept))
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

    ``gates`` are GateSpecs, parsed or compiled, in application order.
    """
    n = state.n
    t0 = time.perf_counter()
    gates = list(gates)
    cols = _propagate_columns(gates, n, *_observable_indices(k, n))
    value = -1j * _pair_form(cols[:, 0], cols[:, 1], state)
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
