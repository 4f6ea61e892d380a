"""Exact algebra of n-line Pauli product operators with phase tracking.

A Pauli product is encoded by two n-bit masks.  Bit ``k-1`` of ``x_mask`` and
``z_mask`` decodes the factor on line ``k``:

    (0, 0) -> I,   (1, 0) -> X,   (0, 1) -> Z,   (1, 1) -> Y.

The operator represented by a :class:`PauliString` is

    coeff * i**phase_pow * (P_1 x P_2 x ... x P_n)

with line 1 the leftmost tensor factor.  The phase of a product of two strings
is an exact integer power of i, so Clifford-algebra identities (commutation,
involution) hold without any floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}

_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliString:
    n: int
    x_mask: int
    z_mask: int
    phase_pow: int = 0
    coeff: complex = 1.0 + 0j

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"need at least one line, got n={self.n}")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise DimensionError("mask has bits outside the n lines")
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)
        object.__setattr__(self, "coeff", complex(self.coeff))

    def label(self) -> str:
        return "".join(
            _LETTER[((self.x_mask >> k) & 1, (self.z_mask >> k) & 1)] for k in range(self.n)
        )

    def __repr__(self):
        return f"PauliString({self.coeff!r}*i^{self.phase_pow}*{self.label()})"

    @property
    def scalar(self) -> complex:
        """The full scalar prefactor coeff * i**phase_pow."""
        return self.coeff * (1j ** self.phase_pow)

    def with_coeff(self, coeff: complex) -> "PauliString":
        return PauliString(self.n, self.x_mask, self.z_mask, self.phase_pow, coeff)

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; intended for small n only."""
        m = np.array([[1.0 + 0j]])
        for k in range(self.n):
            m = np.kron(m, _PAULI_1Q[((self.x_mask >> k) & 1, (self.z_mask >> k) & 1)])
        return self.scalar * m


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Exact product of two Pauli strings; phase tracked as an integer power of i."""
    if p.n != q.n:
        raise DimensionError(f"line counts differ: {p.n} != {q.n}")
    x = p.x_mask ^ q.x_mask
    z = p.z_mask ^ q.z_mask
    # Decompose each factor as i^{|x&z|} X^x Z^z, commute Z's past X's.
    dphase = (
        (p.x_mask & p.z_mask).bit_count()
        + (q.x_mask & q.z_mask).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
        - (x & z).bit_count()
    )
    return PauliString(p.n, x, z, p.phase_pow + q.phase_pow + dphase, p.coeff * q.coeff)


def commutation_sign(p: PauliString, q: PauliString) -> int:
    """+1 if pq = qp, -1 if pq = -qp, decided exactly from mask overlaps."""
    if p.n != q.n:
        raise DimensionError(f"line counts differ: {p.n} != {q.n}")
    anti = ((p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()) % 2
    return -1 if anti else 1


DEFAULT_DROP_TOL = 1e-14


class PauliSum:
    """A complex-linear combination of Pauli products.

    Terms are keyed by (x_mask, z_mask); the stored coefficient absorbs the
    i-power phase of any contributing string.  Coefficients with magnitude
    at most ``DEFAULT_DROP_TOL`` are dropped on construction and accumulation.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[tuple[int, int], complex] = {}
        if terms:
            for key, val in dict(terms).items():
                if abs(val) > DEFAULT_DROP_TOL:
                    self.terms[key] = complex(val)

    @classmethod
    def from_strings(cls, strings, n: int) -> "PauliSum":
        out = cls(n)
        for s in strings:
            out._add_string(s)
        out._prune()
        return out

    def _add_string(self, s: PauliString, weight: complex = 1.0):
        if s.n != self.n:
            raise DimensionError(f"line counts differ: {s.n} != {self.n}")
        key = (s.x_mask, s.z_mask)
        self.terms[key] = self.terms.get(key, 0j) + weight * s.scalar

    def _prune(self):
        dead = [k for k, v in self.terms.items() if abs(v) <= DEFAULT_DROP_TOL]
        for k in dead:
            del self.terms[k]

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n
        m = np.zeros((dim, dim), dtype=complex)
        for (x, z), val in self.terms.items():
            m += val * PauliString(self.n, x, z).to_matrix()
        return m


@dataclass(frozen=True)
class ProductState:
    """An n-line product state; one normalized 2-amplitude vector per line."""

    amps: np.ndarray  # shape (n, 2) complex

    def __post_init__(self):
        arr = np.asarray(self.amps, dtype=complex)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise DimensionError(f"expected shape (n, 2), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("per-line vectors must be normalized (use normalized())")

    @classmethod
    def normalized(cls, amps) -> "ProductState":
        arr = np.asarray(amps, dtype=complex)
        norms = np.linalg.norm(arr, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("zero vector on some line cannot be normalized")
        return cls(arr / norms)

    @property
    def n(self) -> int:
        return self.amps.shape[0]

    def single_line_expectations(self) -> dict[str, np.ndarray]:
        """Per-line <a|P|a> for P in X, Y, Z, as length-n arrays."""
        a = self.amps[:, 0]
        b = self.amps[:, 1]
        cross = np.conj(a) * b
        return {
            "X": 2 * cross.real + 0j,
            "Y": 2 * cross.imag + 0j,
            "Z": (np.abs(a) ** 2 - np.abs(b) ** 2) + 0j,
        }

    def to_vector(self) -> np.ndarray:
        """Dense 2^n state vector, line 1 as the most significant bit."""
        v = np.array([1.0 + 0j])
        for k in range(self.n):
            v = np.kron(v, self.amps[k])
        return v


def expectation(state: ProductState, s: PauliSum) -> complex:
    """<state| s |state> at cost O(n * number of terms)."""
    if state.n != s.n:
        raise DimensionError(f"line counts differ: {state.n} != {s.n}")
    e = state.single_line_expectations()
    ex, ey, ez = e["X"], e["Y"], e["Z"]
    total = 0j
    for (x, z), coeff in s.terms.items():
        val = coeff
        support = x | z
        while support and val:
            lsb = support & -support
            k = lsb.bit_length() - 1
            xb = (x >> k) & 1
            val *= ey[k] if (xb and (z >> k) & 1) else (ex[k] if xb else ez[k])
            support ^= lsb
        total += val
    return total
