"""Heisenberg-picture engine over the (2n+1)-dimensional d-operator space.

Each gate e^A acts on the generators by conjugation as a (2n+1) x (2n+1)
matrix K = exp(-4 atilde), where atilde is the purely quadratic extension of
the gate exponent; K differs from the identity only on the gate's support.
For any antisymmetric atilde, K^T = K^{-1} exactly, so conjugating by the
gate inverse (the non-unitary generalisation of the usual adjoint) uses
the same K matrices; the engine always computes <psi0| C^{-1} O C |psi0>,
which coincides with the Born-rule quantity for unitary circuits.

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
import scipy.linalg

from .errors import DimensionError, InconsistencyError
from .exponents import GateExponent, extend_quadratic
from .jw import JwFamily
from .pauli import PauliSum, ProductState, pauli_mul

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


def _gate_block(g: GateExponent) -> tuple[list[int], np.ndarray]:
    """The gate's support d indices and K = exp(-4 atilde) restricted to them."""
    eq = extend_quadratic(g)
    idx = eq.support()
    return idx, scipy.linalg.expm(-4.0 * eq.block(idx))


def gate_transfer(g: GateExponent) -> np.ndarray:
    """K = exp(-4 atilde) over d indices 0..2n."""
    K = np.eye(2 * g.n + 1, dtype=complex)
    idx, block = _gate_block(g)
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
        if g.n != n:
            raise DimensionError(f"gate has n={g.n}, circuit has n={n}")
        idx, block = _gate_block(g)
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


def heisenberg_observable(gates, k: int, family: JwFamily, observable: str = "Z") -> PauliSum:
    """C^{-1} O C expanded as a Pauli sum over the family's n lines."""
    n = family.n
    cols = _propagate_columns(list(gates), n, *_observable_indices(k, n, observable))
    u, v = cols[:, 0], cols[:, 1]
    B = -0.5j * (np.outer(u, v) - np.outer(v, u))
    return _expand_coeff_matrix(B, family).restricted(n)


def _expand_coeff_matrix(B: np.ndarray, family: JwFamily, drop_tol: float = 1e-14) -> PauliSum:
    """sum_{a != b} B[a, b] d_a d_b for an antisymmetric B."""
    out = PauliSum(family.lines)
    for a, b in zip(*np.nonzero(np.abs(B) > drop_tol)):
        out._add_string(pauli_mul(family.d(a), family.d(b)), weight=B[a, b])
    out._prune()
    return out


def simulate(
    gates,
    state: ProductState,
    k: int,
    observable: str = "Z",
    unitary: bool | None = None,
    tol: float = 1e-9,
) -> SimResult:
    """Expectation of the measured observable after the circuit, in poly(n) time."""
    n = state.n
    t0 = time.perf_counter()
    gates = list(gates)
    cols = _propagate_columns(gates, n, *_observable_indices(k, n, observable))
    value = -1j * _pair_form(cols[:, 0], cols[:, 1], state)
    elapsed = (time.perf_counter() - t0) * 1e3
    return SimResult.from_value(value, ENGINE_NAME, len(gates), elapsed, unitary, tol)
