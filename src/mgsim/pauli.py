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

    @classmethod
    def from_label(cls, label: str, phase_pow: int = 0, coeff: complex = 1.0) -> "PauliString":
        """Build from a letter string like ``"XIZ"`` (line 1 first)."""
        x = z = 0
        for k, ch in enumerate(label):
            if ch == "X":
                x |= 1 << k
            elif ch == "Y":
                x |= 1 << k
                z |= 1 << k
            elif ch == "Z":
                z |= 1 << k
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z, phase_pow, coeff)

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

    def is_hermitian_unit(self) -> bool:
        """True if the full scalar prefactor is exactly +1 or -1."""
        return self.scalar == 1 or self.scalar == -1

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


def embed(p: PauliString, target_lines, n: int) -> PauliString:
    """Embed p onto the given 1-based lines of an n-line register (identity elsewhere)."""
    lines = list(target_lines)
    if len(lines) != p.n:
        raise DimensionError(f"{p.n}-line string needs {p.n} target lines, got {len(lines)}")
    if len(set(lines)) != len(lines):
        raise DimensionError("target lines must be distinct")
    x = z = 0
    for j, line in enumerate(lines):
        if not 1 <= line <= n:
            raise DimensionError(f"target line {line} outside 1..{n}")
        if (p.x_mask >> j) & 1:
            x |= 1 << (line - 1)
        if (p.z_mask >> j) & 1:
            z |= 1 << (line - 1)
    return PauliString(n, x, z, p.phase_pow, p.coeff)


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
    def from_strings(cls, strings, n: int | None = None) -> "PauliSum":
        strings = list(strings)
        if n is None:
            if not strings:
                raise DimensionError("cannot infer n from an empty string list")
            n = strings[0].n
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

    def __len__(self):
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.n != self.n:
            raise DimensionError(f"line counts differ: {other.n} != {self.n}")
        out = PauliSum(self.n, self.terms)
        for key, val in other.terms.items():
            out.terms[key] = out.terms.get(key, 0j) + val
        out._prune()
        return out

    def restricted(self, n: int) -> "PauliSum":
        """Drop trailing lines, which must carry only identity factors."""
        full = (1 << n) - 1
        for x, z in self.terms:
            if x & ~full or z & ~full:
                raise DimensionError("sum acts nontrivially beyond the requested lines")
        return PauliSum(n, self.terms)

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

    @classmethod
    def computational(cls, bits) -> "ProductState":
        return cls(np.array([[1, 0] if b == 0 else [0, 1] for b in bits], dtype=complex))

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
