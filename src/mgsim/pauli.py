"""Exact algebra of n-line Pauli product operators with phase tracking.

A Pauli product is encoded by two n-bit masks.  Bit ``k-1`` of ``x_mask`` and
``z_mask`` decodes the factor on line ``k``:

    (0, 0) -> I,   (1, 0) -> X,   (0, 1) -> Z,   (1, 1) -> Y.

The operator represented by a :class:`PauliString` is the Pauli-group element

    i**phase_pow * (P_1 x P_2 x ... x P_n)

with line 1 the leftmost tensor factor.  It carries no float: the phase of a
product of two strings is an exact integer power of i, so Clifford-algebra
identities (commutation, involution) hold without any floating-point
tolerance.  A linear combination of Pauli products is a plain dict
``{(x_mask, z_mask): coeff}``, the coefficient absorbing any phase.

A :class:`ProductState` holds one normalized amplitude pair per line; the
engines evaluate their observables from its single-line expectations.
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

# i**p; spelled out because 1j**3 is complex(-0.0, -1.0)
_PHASES = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


@dataclass(frozen=True)
class PauliString:
    n: int
    x_mask: int
    z_mask: int
    phase_pow: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError(f"need at least one line, got n={self.n}")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise DimensionError("mask has bits outside the n lines")
        object.__setattr__(self, "phase_pow", self.phase_pow % 4)

    def label(self) -> str:
        return "".join(
            _LETTER[((self.x_mask >> k) & 1, (self.z_mask >> k) & 1)] for k in range(self.n)
        )

    def __repr__(self):
        return f"PauliString(i^{self.phase_pow}*{self.label()})"

    @property
    def scalar(self) -> complex:
        """The phase i**phase_pow, with +0.0 wherever a part vanishes."""
        return _PHASES[self.phase_pow]

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
    return PauliString(p.n, x, z, p.phase_pow + q.phase_pow + dphase)


def commutation_sign(p: PauliString, q: PauliString) -> int:
    """+1 if pq = qp, -1 if pq = -qp, decided exactly from mask overlaps."""
    if p.n != q.n:
        raise DimensionError(f"line counts differ: {p.n} != {q.n}")
    anti = ((p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()) % 2
    return -1 if anti else 1


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
            v = (v[:, None] * self.amps[k]).reshape(-1)
        return v

