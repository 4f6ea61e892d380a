"""Gate exponents over the Jordan-Wigner generators.

A gate is represented as e^A with

    A = sum_{mu<nu} 2 a_{mu,nu} c_mu c_nu  +  sum_sigma b_sigma c_sigma  +  s I,

i.e. the full antisymmetric double sum over quadratic terms plus linear terms
plus a scalar.  Diagonal quadratic terms (mu = nu) contribute only a scalar
and are folded into s.  Compilation routines turn each supported gate class
(nearest-neighbour G(V,W), diagonal matchgates, general 2-qubit matchgates on
lines 1-2, arbitrary 1-qubit gates on line 1) into this form via the 4x4
generator logarithm.

Phases are never taken on faith from shorthand like "Z_k = c_{2k-1}c_{2k}":
every constant here is produced by the exact Pauli algebra (the true relation
carries a factor -i) and is cross-checked against the dense oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import matchgate
from .errors import DimensionError, GateClassError
from .jw import JwFamily, jw
from .pauli import PauliString, PauliSum, pauli_mul


def _freeze_dict(d):
    return tuple(sorted(d.items()))


@dataclass(frozen=True)
class GateExponent:
    """Sparse coefficients (a, b, s) of a gate exponent on an n-line register.

    ``a`` maps index pairs (mu, nu) with 1 <= mu < nu <= 2n to the
    antisymmetric quadratic coefficient a_{mu,nu} (the mirrored lower entry is
    implied); ``b`` maps sigma to the linear coefficient.
    """

    n: int
    a: tuple = ()  # sorted ((mu, nu), value) pairs, mu < nu
    b: tuple = ()  # sorted (sigma, value) pairs
    s: complex = 0j

    @classmethod
    def make(cls, n, a=None, b=None, s=0j) -> "GateExponent":
        a = dict(a or {})
        b = dict(b or {})
        for (mu, nu) in a:
            if not 1 <= mu < nu <= 2 * n:
                raise DimensionError(f"quadratic index pair ({mu},{nu}) invalid for n={n}")
        for sigma in b:
            if not 1 <= sigma <= 2 * n:
                raise DimensionError(f"linear index {sigma} outside 1..{2 * n}")
        a = {k: complex(v) for k, v in a.items() if v != 0}
        b = {k: complex(v) for k, v in b.items() if v != 0}
        return cls(n, _freeze_dict(a), _freeze_dict(b), complex(s))

    @property
    def a_dict(self) -> dict:
        return dict(self.a)

    @property
    def b_dict(self) -> dict:
        return dict(self.b)

    def support(self) -> list[int]:
        """Sorted c indices carrying nonzero coefficients."""
        idx = set()
        for (mu, nu), _ in self.a:
            idx.update((mu, nu))
        idx.update(sigma for sigma, _ in self.b)
        return sorted(idx)

    def a_matrix(self) -> np.ndarray:
        """Dense antisymmetric 2n x 2n quadratic coefficient matrix."""
        m = np.zeros((2 * self.n, 2 * self.n), dtype=complex)
        for (mu, nu), val in self.a:
            m[mu - 1, nu - 1] = val
            m[nu - 1, mu - 1] = -val
        return m

    def b_vector(self) -> np.ndarray:
        v = np.zeros(2 * self.n, dtype=complex)
        for sigma, val in self.b:
            v[sigma - 1] = val
        return v


@dataclass(frozen=True)
class ExtendedQuadratic:
    """Purely quadratic coefficients over d_0..d_{2n}; row/column 0 encodes b."""

    n: int
    atilde: tuple  # sorted ((mu, nu), value) pairs, 0 <= mu < nu <= 2n
    s: complex = 0j

    def support(self) -> list[int]:
        idx = set()
        for (mu, nu), _ in self.atilde:
            idx.update((mu, nu))
        return sorted(idx)

    def matrix(self) -> np.ndarray:
        """Dense antisymmetric (2n+1) x (2n+1) matrix over indices 0..2n."""
        m = np.zeros((2 * self.n + 1, 2 * self.n + 1), dtype=complex)
        for (mu, nu), val in self.atilde:
            m[mu, nu] = val
            m[nu, mu] = -val
        return m

    def block(self, indices) -> np.ndarray:
        """Dense antisymmetric block restricted to the given sorted d indices."""
        pos = {idx: p for p, idx in enumerate(indices)}
        m = np.zeros((len(indices), len(indices)), dtype=complex)
        for (mu, nu), val in self.atilde:
            m[pos[mu], pos[nu]] = val
            m[pos[nu], pos[mu]] = -val
        return m


def extend_quadratic(g: GateExponent) -> ExtendedQuadratic:
    """Rewrite a quadratic-plus-linear exponent as purely quadratic in the d's.

    atilde_{mu,nu} = a_{mu,nu} for mu,nu >= 1 and atilde_{0,sigma} = i b_sigma / 2,
    so that b_sigma = i (atilde_{sigma,0} - atilde_{0,sigma}).
    """
    at = {pair: val for pair, val in g.a}
    for sigma, val in g.b:
        at[(0, sigma)] = 0.5j * val
    return ExtendedQuadratic(g.n, _freeze_dict(at), g.s)


def from_extended(eq: ExtendedQuadratic) -> GateExponent:
    """Inverse of :func:`extend_quadratic`."""
    a = {}
    b = {}
    for (mu, nu), val in eq.atilde:
        if mu == 0:
            b[nu] = -2j * val
        else:
            a[(mu, nu)] = val
    return GateExponent.make(eq.n, a, b, eq.s)


def to_pauli_sum(g: GateExponent, family: JwFamily) -> PauliSum:
    """Expand A over Pauli strings exactly, on the family's line count."""
    if family.n != g.n:
        raise DimensionError(f"family has n={family.n}, exponent has n={g.n}")
    strings = []
    for (mu, nu), val in g.a:
        strings.append(pauli_mul(family.c(mu), family.c(nu)).with_coeff(2 * val))
    for sigma, val in g.b:
        strings.append(family.c(sigma).with_coeff(val))
    strings.append(PauliString(family.lines, 0, 0, 0, g.s))
    return PauliSum.from_strings(strings, n=family.lines)


@lru_cache(maxsize=None)
def _pair_phases() -> tuple[complex, ...]:
    """Scalar phi with c_mu c_nu = phi * (bare Pauli), for the six 2-line pairs."""
    out = []
    for mu, nu in matchgate.GENERATOR_PAIRS:
        out.append(pauli_mul(jw(2, mu), jw(2, nu)).scalar)
    return tuple(out)


def _coeffs_to_exponent(coeffs, lines: tuple[int, int], n: int, tol: float,
                        require_quadratic: bool = False) -> GateExponent:
    """Map 11-generator coefficients (tilde basis) onto global JW indices.

    Under the qubit-swap relabeling the tilde generators become the standard
    2-line JW operators, so the coefficients transfer verbatim: slot sigma
    (1..4) is the linear coefficient of c_sigma and the six quadratic slots
    give 2 a_{mu,nu} = coeff / phi_{mu,nu}.
    """
    k = lines[0]
    offset = 2 * (k - 1)
    scale = max(1.0, float(np.linalg.norm(coeffs)))
    linear_floor = (tol if require_quadratic else 1e-12) * scale
    b = {}
    for sigma in range(1, 5):
        val = coeffs[sigma]
        if abs(val) <= linear_floor:
            continue
        if require_quadratic:
            raise GateClassError(
                f"unexpected linear coefficient b_{sigma} = {val} for a purely quadratic gate class"
            )
        b[offset + sigma] = val
    a = {}
    for (mu, nu), phi, val in zip(matchgate.GENERATOR_PAIRS, _pair_phases(), coeffs[5:]):
        if abs(val) > 1e-15 * scale:
            a[(offset + mu, offset + nu)] = val / (2 * phi)
    return GateExponent.make(n, a, b, coeffs[0])


def compile_gvw(V, W, k: int, n: int, tol: float = 1e-9) -> GateExponent:
    """Compile G(V, W) on nearest-neighbour lines (k, k+1) to a quadratic exponent."""
    if not 1 <= k <= n - 1:
        raise GateClassError(f"G(V,W) needs nearest-neighbour lines; k={k} invalid for n={n}")
    B = matchgate.g_vw(V, W, tol=tol)
    coeffs = matchgate.log_to_L(matchgate.swap_convention(B), tol=tol)
    return _coeffs_to_exponent(coeffs, (k, k + 1), n, tol, require_quadratic=True)


def compile_mg12(B, n: int, tol: float = 1e-9) -> GateExponent:
    """Compile an arbitrary invertible 2-qubit matchgate acting on lines (1, 2).

    ``B`` is the physical matrix in standard qubit order; the matchgate
    identities are checked after the documented 1,2,3,4 -> 1,3,2,4 relabeling.
    """
    if n < 2:
        raise GateClassError("mg12 gates need at least two lines")
    coeffs = matchgate.log_to_L(matchgate.swap_convention(B), tol=tol)
    return _coeffs_to_exponent(coeffs, (1, 2), n, tol)


def compile_diag(d, k: int, l: int, n: int, tol: float = 1e-9) -> GateExponent:
    """Compile diag(d1..d4) on lines k < l (any pair) via commuting Z logs."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (4,):
        raise GateClassError(f"expected 4 diagonal entries, got shape {d.shape}")
    if not 1 <= k < l <= n:
        raise GateClassError(f"need 1 <= k < l <= n, got k={k}, l={l}, n={n}")
    if np.any(d == 0):
        raise GateClassError("diagonal matchgates must have nonzero entries")
    scale = float(np.max(np.abs(d))) ** 2
    if abs(d[0] * d[3] - d[1] * d[2]) > tol * max(scale, 1.0):
        raise GateClassError(
            f"diagonal condition B11*B44 = B22*B33 violated: {d[0] * d[3]} != {d[1] * d[2]}"
        )
    lam = np.log(d)
    # principal logs may disagree by 2*pi*i across the constraint; repair on lam[3]
    lam[3] = lam[1] + lam[2] - lam[0]
    gamma = (lam[0] + lam[1] + lam[2] + lam[3]) / 4
    alpha = (lam[0] + lam[1] - lam[2] - lam[3]) / 4
    beta = (lam[0] - lam[1] + lam[2] - lam[3]) / 4
    # Z_k = -i c_{2k-1} c_{2k}: alpha * Z_k means 2 a_{2k-1,2k} = -i alpha
    a = {(2 * k - 1, 2 * k): -0.5j * alpha, (2 * l - 1, 2 * l): -0.5j * beta}
    return GateExponent.make(n, a, {}, gamma)


def compile_u1(U, n: int, tol: float = 1e-9) -> GateExponent:
    """Compile an arbitrary invertible 1-qubit gate on line 1."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise GateClassError(f"expected a 2x2 matrix, got shape {U.shape}")
    if abs(np.linalg.det(U)) <= tol:
        raise GateClassError("1-qubit gate must be invertible")
    L = scipy.linalg.logm(U)
    paulis = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    delta = np.trace(L) / 2
    cx = np.trace(paulis["X"] @ L) / 2
    cy = np.trace(paulis["Y"] @ L) / 2
    cz = np.trace(paulis["Z"] @ L) / 2
    # X_1 = c_1, Y_1 = c_2, Z_1 = -i c_1 c_2
    b = {1: cx, 2: cy}
    a = {(1, 2): -0.5j * cz}
    return GateExponent.make(n, a, b, delta)


def raw_exponent(n: int, a=None, b=None, s=0j) -> GateExponent:
    """Arbitrary user-supplied exponent coefficients (the `exp` gate class)."""
    return GateExponent.make(n, a, b, s)


def is_unitary_exponent(g: GateExponent, tol: float = 1e-8) -> bool:
    """True if e^A is manifestly unitary up to global phase: a real, b and s imaginary."""
    a_ok = all(abs(val.imag) <= tol for _, val in g.a)
    b_ok = all(abs(val.real) <= tol for _, val in g.b)
    return a_ok and b_ok and abs(g.s.real) <= tol
