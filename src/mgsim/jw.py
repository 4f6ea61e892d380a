"""Jordan-Wigner operator families.

For n lines the 2n Majorana-style generators are

    c_{2k-1} = Z ... Z X I ... I      (X on line k)
    c_{2k}   = Z ... Z Y I ... I      (Y on line k)

and satisfy {c_u, c_v} = 2 delta_{uv} I exactly.  A family additionally carries
an extra anticommuting generator c_0, in one of two constructions:

* ``parity``:     c_0 = Z...Z on the n lines (the product of all 2n c's up to phase);
* ``extra_line``: c_0 = Z...Z X with X on an auxiliary line n+1; all other
  operators are extended by the identity on that line.

From c_0 the Hermitian operators d_0 = c_0 and d_u = i c_u c_0 are derived,
which satisfy the same anticommutation relations and turn linear-plus-quadratic
exponents into purely quadratic ones.
"""

from __future__ import annotations

from .errors import DimensionError
from .pauli import PauliString, pauli_mul

PARITY = "parity"
EXTRA_LINE = "extra_line"
C0_MODES = (PARITY, EXTRA_LINE)


def jw(n: int, mu: int, lines: int | None = None) -> PauliString:
    """The JW operator c_mu on n lines (optionally embedded in `lines` >= n lines)."""
    if not 1 <= mu <= 2 * n:
        raise DimensionError(f"index {mu} outside 1..{2 * n}")
    total = n if lines is None else lines
    if total < n:
        raise DimensionError(f"cannot embed {n}-line operator in {total} lines")
    k = (mu + 1) // 2  # site carrying the X or Y
    z = (1 << (k - 1)) - 1  # Z's on lines 1..k-1
    x = 1 << (k - 1)
    if mu % 2 == 0:  # Y carries both bits
        z |= 1 << (k - 1)
    return PauliString(total, x, z)


def jw_tilde2(mu: int) -> PauliString:
    """The reversed-order 2-line operators: IX, IY, XZ, YZ for mu = 1..4."""
    if not 1 <= mu <= 4:
        raise DimensionError(f"index {mu} outside 1..4")
    p = jw(2, mu)
    # reverse the two tensor factors by swapping mask bits
    swap = lambda m: ((m & 1) << 1) | ((m >> 1) & 1)
    return PauliString(2, swap(p.x_mask), swap(p.z_mask), p.phase_pow, p.coeff)


def c0(n: int, mode: str) -> PauliString:
    """The extra anticommuting generator, on n (parity) or n+1 (extra_line) lines."""
    if mode == PARITY:
        return PauliString(n, 0, (1 << n) - 1)
    if mode == EXTRA_LINE:
        return PauliString(n + 1, 1 << n, (1 << n) - 1)
    raise ValueError(f"unknown c0 mode {mode!r}; expected one of {C0_MODES}")


class JwFamily:
    """Cached c_0..c_{2n} and d_0..d_{2n} operators for a fixed n and c0 mode."""

    def __init__(self, n: int, mode: str = PARITY):
        if n < 1:
            raise DimensionError(f"need n >= 1, got {n}")
        if mode not in C0_MODES:
            raise ValueError(f"unknown c0 mode {mode!r}; expected one of {C0_MODES}")
        self.n = n
        self.mode = mode
        self.lines = n if mode == PARITY else n + 1
        self._c = [c0(n, mode)]
        self._c += [jw(n, mu, lines=self.lines) for mu in range(1, 2 * n + 1)]
        self._d = [self._c[0]]
        for mu in range(1, 2 * n + 1):
            p = pauli_mul(self._c[mu], self._c[0])
            self._d.append(PauliString(self.lines, p.x_mask, p.z_mask, p.phase_pow + 1, p.coeff))

    def c(self, mu: int) -> PauliString:
        if not 0 <= mu <= 2 * self.n:
            raise DimensionError(f"index {mu} outside 0..{2 * self.n}")
        return self._c[mu]

    def d(self, mu: int) -> PauliString:
        if not 0 <= mu <= 2 * self.n:
            raise DimensionError(f"index {mu} outside 0..{2 * self.n}")
        return self._d[mu]

    def z_string(self, k: int) -> PauliString:
        """Z on line k (= -i c_{2k-1} c_{2k}), on the family's line count."""
        if not 1 <= k <= self.n:
            raise DimensionError(f"line {k} outside 1..{self.n}")
        return PauliString(self.lines, 0, 1 << (k - 1))

