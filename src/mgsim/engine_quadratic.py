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
other block takes scipy's expm, imported on first use, so a run on
matrix-class and unitary exp gates never loads scipy.  Blocks are built a
chunk of gates at a time and class by class, so numpy is called per chunk,
not per gate: the matrix-class gates of a chunk share one stacked inverse,
and its real antisymmetric exp blocks one stacked eigh per block size.  K^T = K^{-1} in both
cases, so conjugating by the gate inverse (the non-unitary generalisation of
the usual adjoint) uses the same K matrices; the engine always computes
<psi0| C^{-1} Z_k C |psi0>, which coincides with the Born-rule quantity for
unitary circuits.

The measured Z_k = -i d_mu d_nu, with mu = 2k-1 and nu = 2k, is quadratic, so
C^{-1} Z_k C = -i (K d)_mu (K d)_nu needs only the two columns u = K e_mu and
v = K e_nu of the circuit's total transfer K = K_1 ... K_G.  They are
propagated through the gates in reverse, each gate touching only its support
rows.  The value is -i u^T m v with m[a, b] = <psi0| d_a d_b |psi0>; on a
product state m is semiseparable, so one left-to-right scan over the lines
evaluates it.

Cost: O(sum_g s_g^2 + n) time for gates of support s_g, O(n + _CHUNK) memory.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass

import numpy as np

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


def _matrix_blocks(specs) -> list[tuple[list[int], np.ndarray]]:
    """Support d indices and K_ab = 1/4 tr(d_a B^{-1} d_b B) of matrix-class gates,
    through one stacked inverse, one stacked product and one contraction against _D2T.

    The Z strings left of (and, for diag, between) a gate's lines commute with
    B, so the two-line K carries over to the gate's global d indices.
    """
    B = gate_matrices(specs)
    inv_d = np.linalg.inv(B)[:, :, _D2_ROW].transpose(0, 2, 1, 3) * _D2_PHASE[:, None, :]
    M = inv_d @ B[:, None]  # M[g, b] = B_g^{-1} d_b B_g
    K = 0.25 * (_D2T @ M.reshape(-1, 5, 16).transpose(0, 2, 1))
    out = []
    for spec, k in zip(specs, K):
        if spec.cls == "mg12":
            out.append(([0, 1, 2, 3, 4], k))
        elif spec.cls == "u1":  # U (x) I commutes with d_3, d_4
            out.append(([0, 1, 2], k[:3, :3]))
        else:  # gvw and diag preserve parity: d_0 is untouched
            a, b = spec.lines
            out.append(([2 * a - 1, 2 * a, 2 * b - 1, 2 * b], k[1:, 1:]))
    return out


def _exp_generators(exps, n: int) -> dict[int, tuple[list, np.ndarray]]:
    """X = -4 atilde of exp gates given as (a, b) coefficient pairs, grouped by block
    size: size -> ([(position, support d indices)], (G, size, size) stack of X).

    The support is d_0 (only when b has a nonzero entry) and the indices of the
    nonzero coefficients, sorted; atilde_{mu,nu} = a_{mu,nu}, atilde_{0,sigma} =
    i b_sigma / 2.
    """
    groups = {}
    for j, (a, b) in enumerate(exps):
        atilde = ([(pair, val) for pair, val in a if val != 0]
                  + [((0, sigma), 0.5j * val) for sigma, val in b if val != 0])
        idx = sorted({mu for pair, _ in atilde for mu in pair})
        if not idx:
            continue  # e^A is a scalar: K is the identity
        if idx[-1] > 2 * n:
            raise DimensionError(f"exp gate on d index {idx[-1]}, circuit has n={n}")
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


def _exp_blocks(exps, n: int) -> list[tuple[int, list[int], np.ndarray]]:
    """(position, support, K = e^X) of exp gates given as (a, b) pairs.

    When X is exactly real antisymmetric (every unitary exp gate), iX is Hermitian
    and K = V diag(e^{-i lam}) V^H comes from one stacked eigh per block size;
    any other block takes scipy's expm, imported on first use.
    """
    out = []
    for gates, X in _exp_generators(exps, n).values():
        Xr = X.real
        real = ~X.imag.any(axis=(1, 2)) & (Xr == -Xr.transpose(0, 2, 1)).all(axis=(1, 2))
        if real.any():
            lam, V = np.linalg.eigh(1j * Xr[real])
            K = ((V * np.exp(-1j * lam)[:, None, :]) @ V.conj().transpose(0, 2, 1)).real
            out += [(*gate, k) for gate, k in zip(itertools.compress(gates, real), K)]
        if not real.all():
            import scipy.linalg
            out += [(*gates[i], scipy.linalg.expm(X[i])) for i in np.flatnonzero(~real)]
    return out


def _gate_blocks(gates, n: int) -> list[tuple[list[int], np.ndarray]]:
    """Support d indices and the transfer restricted to them, for each GateSpec of a
    list, built class by class."""
    matrix, exps, exp_at = [], [], []
    for i, g in enumerate(gates):
        if max(g.lines, default=0) > n:
            raise DimensionError(f"gate on lines {g.lines}, circuit has n={n}")
        if g.cls != "exp":
            matrix.append(i)
            continue
        exps.append((g.param("a"), g.param("b")))
        exp_at.append(i)
    blocks = [None] * len(gates)
    if matrix:
        for i, block in zip(matrix, _matrix_blocks([gates[i] for i in matrix])):
            blocks[i] = block
    for j, idx, K in _exp_blocks(exps, n):
        blocks[exp_at[j]] = (idx, K)
    return [b for b in blocks if b is not None]


def _observable_indices(k: int, n: int) -> tuple[int, int]:
    """(mu, nu) with Z_k = -i d_mu d_nu."""
    if not 1 <= k <= n:
        raise DimensionError(f"measured line {k} outside 1..{n}")
    return 2 * k - 1, 2 * k


def _propagate_columns(gates, n: int, mu: int, nu: int) -> np.ndarray:
    """Columns mu and nu of K_1 ... K_G as a (2n+1) x 2 array."""
    cols = np.zeros((2 * n + 1, 2), dtype=complex)
    cols[mu, 0] = cols[nu, 1] = 1.0
    for stop in range(len(gates), 0, -_CHUNK):
        for idx, block in reversed(_gate_blocks(gates[max(stop - _CHUNK, 0):stop], n)):
            if idx[-1] - idx[0] == len(idx) - 1:  # a slice costs less than an index list
                idx = slice(idx[0], idx[-1] + 1)
            cols[idx] = block @ cols[idx]
    return cols


def _pair_form(u: np.ndarray, v: np.ndarray, state: ProductState) -> complex:
    """u^T m v with m[a, b] = <psi0| d_a d_b |psi0> (a != b; m is antisymmetric).

    For a < b on different sites p < q (d_0 counted as site 0),
    m[a, b] = left_a * prod_{p<j<q} <Z_j> * right_b, with left = -i on d_0,
    -i<Y_p> on d_{2p-1} and i<X_p> on d_{2p}, and right = <X_q>, <Y_q> on
    d_{2q-1}, d_{2q}; on one site m[2q-1, 2q] = i<Z_q>.  The accumulators
    carry sum_a left_a u_a (resp. v_a) times the Z products up to the current
    site, so the scan only multiplies and adds: a vanishing product of many
    small <Z_j> underflows to 0 instead of dividing.
    """
    e = state.single_line_expectations()
    ex, ey, ez = (e[p].tolist() for p in "XYZ")
    u, v = u.tolist(), v.tolist()
    acc_u, acc_v = -1j * u[0], -1j * v[0]
    total = 0j
    for q in range(state.n):
        a, b = 2 * q + 1, 2 * q + 2
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
