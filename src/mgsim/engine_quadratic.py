"""Heisenberg-picture engine over the (2n+1)-dimensional d-operator space.

Each gate B acts on the generators by conjugation, B^{-1} d_a B = sum_b K_ab d_b,
with a (2n+1) x (2n+1) transfer K that differs from the identity only on the
gate's support.  For the matrix gate classes (gvw, diag, mg12, u1) the block
is read straight off the gate matrix as K_ab = 1/4 tr(d_a B^{-1} d_b B) over
the five two-line operators d_0..d_4 (Jozsa & Miyake, arXiv:0804.4050): no
logarithm is taken, so every invertible matchgate is accepted, including
those that are only limits of exponentials.  Only `exp` gates, and compiled
GateExponents, go through their exponent as K = exp(X), X = -4 atilde, where
atilde is the purely quadratic extension of the exponent.  When X is exactly
real antisymmetric, as on every unitary exp gate, iX is Hermitian and
K = V diag(e^{-i lam}) V^H comes from numpy's eigh of iX; any other block
takes scipy's expm, imported on first use, so a run on matrix-class and
unitary exp gates never loads scipy.  K^T = K^{-1} in both
cases, so conjugating by the gate inverse (the non-unitary generalisation of
the usual adjoint) uses the same K matrices; the engine always computes
<psi0| C^{-1} O C |psi0>, which coincides with the Born-rule quantity for
unitary circuits.

Every supported observable is quadratic, O = -i d_mu d_nu, so C^{-1} O C =
-i (K d)_mu (K d)_nu needs only the two columns u = K e_mu and v = K e_nu of
the circuit's total transfer K = K_1 ... K_G.  They are propagated through
the gates in reverse, each gate touching only its support rows.  The value
is -i u^T m v with m[a, b] = <psi0| d_a d_b |psi0>; on a product state m is
semiseparable, so one left-to-right scan over the lines evaluates it.

Cost: O(sum_g s_g^2 + n) time for gates of support s_g, O(n) memory.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass

import numpy as np

from .circuits import GateSpec
from .errors import DimensionError, InconsistencyError
from .exponents import GateExponent, extend_quadratic
from .jw import JwFamily
from .pauli import ProductState

ENGINE_NAME = "quadratic"

# Observables expressible in the d-basis.
_OBSERVABLES = ("Z", "X1", "Y1")


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


def _matrix_block(spec: GateSpec) -> tuple[list[int], np.ndarray]:
    """Support d indices and K_ab = 1/4 tr(d_a B^{-1} d_b B) of a matrix-class gate.

    The Z strings left of (and, for diag, between) the gate's lines commute
    with B, so the two-line K carries over to the gate's global d indices.
    """
    B = spec.matrix()
    M = np.linalg.inv(B) @ _D2 @ B
    K = 0.25 * _D2T @ M.reshape(5, 16).T
    if spec.cls == "mg12":
        return [0, 1, 2, 3, 4], K
    if spec.cls == "u1":  # U (x) I commutes with d_3, d_4
        return [0, 1, 2], K[:3, :3]
    k, l = spec.lines  # gvw and diag preserve parity: d_0 is untouched
    return [2 * k - 1, 2 * k, 2 * l - 1, 2 * l], K[1:, 1:]


def _gate_block(g, n: int) -> tuple[list[int], np.ndarray]:
    """Support d indices and the transfer restricted to them, for a GateSpec or GateExponent."""
    if isinstance(g, GateSpec):
        if max(g.lines, default=0) > n:
            raise DimensionError(f"gate on lines {g.lines}, circuit has n={n}")
        if g.cls != "exp":
            return _matrix_block(g)
        g = g.exponent(n)
    elif g.n != n:
        raise DimensionError(f"gate has n={g.n}, circuit has n={n}")
    eq = extend_quadratic(g)
    idx = eq.support()
    return idx, _expm(-4.0 * eq.block(idx))


def _expm(X: np.ndarray) -> np.ndarray:
    """e^X, through eigh of the Hermitian iX when X is exactly real antisymmetric
    (every unitary exp gate), else through scipy's expm, imported on first use."""
    if not X.imag.any() and np.array_equal(X.real, -X.real.T):
        lam, V = np.linalg.eigh(1j * X.real)
        return ((V * np.exp(-1j * lam)) @ V.conj().T).real
    import scipy.linalg
    return scipy.linalg.expm(X)


def gate_transfer(g: GateExponent) -> np.ndarray:
    """K = exp(-4 atilde) over d indices 0..2n."""
    K = np.eye(2 * g.n + 1, dtype=complex)
    idx, block = _gate_block(g, g.n)
    K[np.ix_(idx, idx)] = block
    return K


def _observable_indices(k: int, n: int, observable: str) -> tuple[int, int]:
    """(mu, nu) with O = -i d_mu d_nu."""
    if observable == "Z":
        if not 1 <= k <= n:
            raise DimensionError(f"measured line {k} outside 1..{n}")
        return 2 * k - 1, 2 * k  # Z_k = -i d_{2k-1} d_{2k}
    if observable == "X1":
        return 1, 0  # X_1 = c_1 = -i d_1 d_0
    if observable == "Y1":
        return 2, 0  # Y_1 = c_2 = -i d_2 d_0
    raise ValueError(f"unsupported observable {observable!r}; one of {_OBSERVABLES}")


def _propagate_columns(gates, n: int, mu: int, nu: int) -> np.ndarray:
    """Columns mu and nu of K_1 ... K_G as a (2n+1) x 2 array."""
    cols = np.zeros((2 * n + 1, 2), dtype=complex)
    cols[mu, 0] = cols[nu, 1] = 1.0
    for g in reversed(gates):
        idx, block = _gate_block(g, n)
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


def simulate(
    gates,
    state: ProductState,
    k: int,
    observable: str = "Z",
    unitary: bool | None = None,
    tol: float = 1e-9,
) -> SimResult:
    """Expectation of the measured observable after the circuit, in poly(n) time.

    ``gates`` are parsed GateSpecs or compiled GateExponents, in application order.
    """
    n = state.n
    t0 = time.perf_counter()
    gates = list(gates)
    cols = _propagate_columns(gates, n, *_observable_indices(k, n, observable))
    value = -1j * _pair_form(cols[:, 0], cols[:, 1], state)
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
