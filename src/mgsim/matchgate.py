"""4x4 matchgate theory: identities, predicates, generators, exp/log maps.

Rows and columns of 4x4 matrices are indexed 1..4, corresponding to the
two-qubit basis states 00, 01, 10, 11.  The ten degree-2 matchgate identities
are taken verbatim in the reversed (tilde) operator convention, in which the
eleven generators are the literal Pauli products

    II; IX, IY, XZ, YZ; IZ, XY, YY, XX, YX, ZI.

A matrix satisfying the identities in the standard Jordan-Wigner convention
instead is related by the basis relabeling 1,2,3,4 -> 1,3,2,4 (a swap of the
two qubits); :func:`swap_convention` performs that relabeling.

Exponentials come from ``linalg.expm_stack``.  Logarithms are taken for a
whole (G, m, m) stack at once, from one eigendecomposition B = V diag(lam) V^-1:
:func:`principal_logs` gives V diag(log lam) V^-1 and :func:`span_logs` the
first branch V diag(log lam + 2 pi i k) V^-1 that lies in the generator span,
exact and cheap while V is well conditioned.  ``scipy.linalg.logm`` covers the
rows whose V is ill conditioned, defective and nearly defective matrices, and
it is the one place the package imports scipy.  Both return one fault per row,
None or the LogBranchError that refuses it, so a caller names the gate.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .errors import LogBranchError, MatchgateError

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_I2, _X, _Y, _Z)
_PAULI_NAMES = "IXYZ"

# Each identity is a list of (sign, (row, col), (row, col)) terms, 1-based.
IDENTITY_TERMS = [
    [(+1, (1, 1), (4, 4)), (-1, (1, 4), (4, 1)), (-1, (2, 2), (3, 3)), (+1, (2, 3), (3, 2))],
    [(+1, (2, 1), (4, 4)), (-1, (2, 2), (4, 3)), (+1, (2, 3), (4, 2)), (-1, (2, 4), (4, 1))],
    [(+1, (3, 1), (4, 4)), (-1, (3, 2), (4, 3)), (+1, (3, 3), (4, 2)), (-1, (3, 4), (4, 1))],
    [(+1, (1, 3), (4, 4)), (-1, (1, 4), (4, 3)), (-1, (2, 3), (3, 4)), (+1, (2, 4), (3, 3))],
    [(+1, (1, 2), (4, 4)), (-1, (1, 4), (4, 2)), (-1, (2, 2), (3, 4)), (+1, (2, 4), (3, 2))],
    [(+1, (1, 1), (2, 4)), (-1, (1, 2), (2, 3)), (+1, (1, 3), (2, 2)), (-1, (1, 4), (2, 1))],
    [(+1, (1, 1), (4, 2)), (-1, (1, 2), (4, 1)), (-1, (2, 1), (3, 2)), (+1, (2, 2), (3, 1))],
    [(+1, (1, 2), (4, 3)), (-1, (1, 3), (4, 2)), (-1, (2, 1), (3, 4)), (+1, (2, 4), (3, 1))],
    [(+1, (1, 1), (3, 4)), (-1, (1, 2), (3, 3)), (+1, (1, 3), (3, 2)), (-1, (1, 4), (3, 1))],
    [(+1, (1, 1), (4, 3)), (-1, (1, 3), (4, 1)), (-1, (2, 1), (3, 3)), (+1, (2, 3), (3, 1))],
]

# Generator basis order (tilde convention), each entry a (first, second) Pauli label.
GENERATOR_LABELS = ("II", "IX", "IY", "XZ", "YZ", "IZ", "XY", "YY", "XX", "YX", "ZI")

# Quadratic generator slots 5..10 correspond to index pairs (mu, nu), mu < nu,
# via c~_mu c~_nu = phase * Pauli; the phases are computed in _pair_phase().
GENERATOR_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _as_mat4(B) -> np.ndarray:
    B = np.asarray(B, dtype=complex)
    if B.shape != (4, 4):
        raise MatchgateError(f"expected a 4x4 matrix, got shape {B.shape}")
    return B


def _as_mat4_stack(B) -> np.ndarray:
    """A 4x4 matrix or a (G, 4, 4) stack of them."""
    B = np.asarray(B, dtype=complex)
    if B.ndim not in (2, 3) or B.shape[-2:] != (4, 4):
        raise MatchgateError(f"expected a 4x4 matrix or a stack of them, got shape {B.shape}")
    return B


def entry_scale(B) -> np.ndarray:
    """m = max(1, max |B_ij|) of each matrix of a stack, shaped to divide it.

    |B_ij| is hypot(re, im), as Python's abs of a complex number takes it: numpy's
    complex abs differs from it in the last bit on some CPUs.
    """
    B = np.asarray(B)
    return np.maximum(1.0, np.hypot(B.real, B.imag).max(axis=(-2, -1), keepdims=True))


def swap_convention(B) -> np.ndarray:
    """Relabel basis 1,2,3,4 -> 1,3,2,4 (swap the two qubits) of a matrix or a stack."""
    return _SWAP @ _as_mat4_stack(B) @ _SWAP


# Entry positions (0-based, flat over the 16 entries) of the two factors of
# every term of the ten identities, and the terms' signs, each shaped (10, 4).
_ID_SIGNS = np.array([[s for s, _, _ in terms] for terms in IDENTITY_TERMS], dtype=float)
_ID_FIRST = np.array([[4 * (a[0] - 1) + a[1] - 1 for _, a, _ in terms]
                      for terms in IDENTITY_TERMS])
_ID_SECOND = np.array([[4 * (b[0] - 1) + b[1] - 1 for _, _, b in terms]
                       for terms in IDENTITY_TERMS])


def _unscaled_identities(B) -> np.ndarray:
    """The ten identity values of each matrix of a (G, 4, 4) stack, term by term as written."""
    flat = B.reshape(-1, 16)
    terms = _ID_SIGNS * flat[:, _ID_FIRST] * flat[:, _ID_SECOND]
    return ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]


def identities(B) -> np.ndarray:
    """The ten matchgate identity values M_1..M_10 of a matrix, or of each matrix of a
    (G, 4, 4) stack, as m^2 M(B/m) with m = max(1, max |B_ij|).

    The identities are homogeneous of degree 2, so this is M(B) in exact arithmetic;
    evaluating them on B/m keeps large entries from overflowing the products, and
    multiplying back by m twice keeps a vanishing value at 0.
    """
    B = _as_mat4_stack(B)
    m = entry_scale(B)
    vals = _unscaled_identities((B / m).reshape(-1, 4, 4)).reshape(B.shape[:-2] + (10,))
    return m[..., 0] * (m[..., 0] * vals)


def is_matchgate(B, tol: float = 1e-10):
    """True iff all ten identities vanish, relative to the squared matrix scale.

    The test runs on B/m with m = max(1, max |B_ij|), the same rule in exact
    arithmetic, so that no entry size overflows it.  tol = 0 asks that every
    identity vanish exactly.  For a (G, 4, 4) stack the answer is one bool per
    matrix.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    B = _as_mat4_stack(B)
    stack = (B / entry_scale(B)).reshape(-1, 4, 4)
    worst = np.abs(_unscaled_identities(stack)).max(axis=1)
    ok = worst <= tol * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)) ** 2)
    return bool(ok[0]) if B.ndim == 2 else ok


def identities_containing(ij: tuple[int, int]) -> list[int]:
    """0-based indices of the five identities whose terms contain entry ij (1-based)."""
    found = [
        m
        for m, terms in enumerate(IDENTITY_TERMS)
        if any(ij in (a, b) for _, a, b in terms)
    ]
    assert len(found) == 5
    return found


def reduced_check(B, ij: tuple[int, int], tol: float = 1e-10) -> bool:
    """Check only the five identities M(ij), on B/m as is_matchgate; valid when B_ij != 0."""
    B = _as_mat4(B)
    B = B / entry_scale(B)
    scale = np.linalg.norm(B)
    if abs(B[ij[0] - 1, ij[1] - 1]) <= tol * scale:
        raise MatchgateError(f"entry B{ij[0]}{ij[1]} is (numerically) zero; reduction needs B_ij != 0")
    vals = identities(B)
    return float(np.max(np.abs(vals[identities_containing(ij)]))) <= tol * max(1.0, scale ** 2)


def _partner_structure(ij):
    """For each identity in M(ij): (identity index, sign, partner entry, other terms)."""
    rows = []
    partners = set()
    for m in identities_containing(ij):
        rest = []
        pivot = None
        for s, a, b in IDENTITY_TERMS[m]:
            if a == ij:
                pivot = (s, b)
            elif b == ij:
                pivot = (s, a)
            else:
                rest.append((s, a, b))
        rows.append((m, pivot[0], pivot[1], rest))
        partners.add(pivot[1])
    return rows, partners


def sample_matchgate(ij: tuple[int, int], c: complex, free_params) -> np.ndarray:
    """Construct a matchgate with B_ij = c and ten free complex parameters.

    The five entries multiplying B_ij in the identities of M(ij) are solved
    for; the remaining ten entries are filled from ``free_params`` in
    row-major order of their positions.
    """
    if c == 0:
        raise MatchgateError("pivot entry c must be nonzero")
    free = list(free_params)
    if len(free) != 10:
        raise MatchgateError(f"need exactly 10 free parameters, got {len(free)}")
    rows, partners = _partner_structure(ij)
    free_positions = sorted(
        pos
        for pos in itertools.product(range(1, 5), repeat=2)
        if pos != ij and pos not in partners
    )
    B = np.zeros((4, 4), dtype=complex)
    B[ij[0] - 1, ij[1] - 1] = c
    for pos, val in zip(free_positions, free):
        B[pos[0] - 1, pos[1] - 1] = val
    for _, sign, partner, rest in rows:
        acc = sum(s * B[a[0] - 1, a[1] - 1] * B[b[0] - 1, b[1] - 1] for s, a, b in rest)
        B[partner[0] - 1, partner[1] - 1] = -acc / (sign * c)
    return B


# G(V, W)'s layout: V acts on the even-parity basis states 00, 11 (rows and
# columns 1 and 4), W on the odd-parity ones 01, 10 (rows and columns 2 and 3).
_EVEN = np.array([0, 3])
_ODD = np.array([1, 2])


def g_vw(V, W) -> np.ndarray:
    """The fermionic gate G(V, W): V on the even-parity block, W on the odd block.

    V and W may be (G, 2, 2) stacks, giving a (G, 4, 4) stack.  G(V, W) is a
    matchgate iff det V = det W; this constructor does not check that, since
    the parser does.
    """
    V = np.asarray(V, dtype=complex)
    W = np.asarray(W, dtype=complex)
    if V.shape[-2:] != (2, 2) or W.shape != V.shape:
        raise MatchgateError("V and W must be 2x2, or stacks of 2x2 of one length")
    B = np.zeros(V.shape[:-2] + (4, 4), dtype=complex)
    B[..., _EVEN[:, None], _EVEN] = V
    B[..., _ODD[:, None], _ODD] = W
    return B


def extract_vw(B) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`g_vw` (ignores entries outside the two parity blocks)."""
    B = _as_mat4(B)
    return B[_EVEN[:, None], _EVEN], B[_ODD[:, None], _ODD]


def antisym_basis() -> np.ndarray:
    """Six orthogonal antisymmetric 16-vectors F_0..F_5 over C^4 (x) C^4."""
    F = np.zeros((6, 16))

    def put(i, entries):
        for (j1, j2), v in entries:
            F[i, 4 * (j1 - 1) + (j2 - 1)] = v

    put(0, [((1, 4), 1), ((4, 1), -1), ((2, 3), -1), ((3, 2), 1)])
    put(1, [((1, 4), 1), ((4, 1), -1), ((2, 3), 1), ((3, 2), -1)])
    put(2, [((1, 2), 1), ((2, 1), -1)])
    put(3, [((1, 3), 1), ((3, 1), -1)])
    put(4, [((2, 4), 1), ((4, 2), -1)])
    put(5, [((3, 4), 1), ((4, 3), -1)])
    return F


_F = antisym_basis()


def d_values(B) -> tuple[np.ndarray, np.ndarray]:
    """The bilinear values D_i = <F_i|(B (x) B)|F_0> and their transposes, i = 1..5."""
    B = _as_mat4(B)
    BB = np.kron(B, B)
    D = np.array([_F[i] @ BB @ _F[0] for i in range(1, 6)])
    DT = np.array([_F[0] @ BB @ _F[i] for i in range(1, 6)])
    return D, DT


def eigenvector_predicate(B, tol: float = 1e-10) -> bool:
    """True iff F_0 is an eigenvector of both B(x)B and B^T (x) B^T.

    Like :func:`is_matchgate`, the test runs on B/m with m = max(1, max |B_ij|),
    the same rule in exact arithmetic, so that B(x)B does not overflow.
    """
    B = _as_mat4(B)
    B = B / entry_scale(B)
    f0 = _F[0]
    f0n2 = f0 @ f0
    scale = max(1.0, float(np.linalg.norm(B) ** 2)) * np.linalg.norm(f0)
    for M in (B, B.T):
        v = np.kron(M, M) @ f0
        resid = v - (f0 @ v) / f0n2 * f0
        if np.linalg.norm(resid) > tol * scale:
            return False
    return True


def _pauli_kron(label: str) -> np.ndarray:
    return np.kron(_PAULIS[_PAULI_NAMES.index(label[0])], _PAULIS[_PAULI_NAMES.index(label[1])])


def generators11() -> list[np.ndarray]:
    """The ordered 11-generator basis as explicit 4x4 matrices."""
    return [_pauli_kron(lbl) for lbl in GENERATOR_LABELS]


_GENS = generators11()
# _PAULI16[k] = P_a (x) P_b with k = 4a + b; coordinates are tr(P_k A) / 4.
_PAULI16 = np.array([_pauli_kron(a + b) for a in _PAULI_NAMES for b in _PAULI_NAMES])


def pauli_coords(A) -> np.ndarray:
    """Coordinates of a 4x4 matrix, or of each matrix of a (G, 4, 4) stack, over the 16
    Pauli products P_i (x) P_j (i-major)."""
    return np.einsum("kij,...ji->...k", _PAULI16, _as_mat4_stack(A)) / 4


_GEN_POSITIONS = [
    _PAULI_NAMES.index(lbl[0]) * 4 + _PAULI_NAMES.index(lbl[1]) for lbl in GENERATOR_LABELS
]
_OFF_POSITIONS = [k for k in range(16) if k not in _GEN_POSITIONS]


def exp_L(coeffs) -> np.ndarray:
    """Matrix exponential of a generator combination; always an invertible matchgate."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (11,):
        raise MatchgateError(f"expected 11 coefficients, got shape {coeffs.shape}")
    return linalg.expm_stack(sum(c * G for c, G in zip(coeffs, _GENS)))


def _project_to_span(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generator coefficients of each matrix of a (G, 4, 4) stack, the norm of its
    out-of-span residual, and its scale max(1, ||A||_F)."""
    coords = pauli_coords(A)
    resid = 2.0 * np.linalg.norm(coords[:, _OFF_POSITIONS], axis=1)  # coords norm -> matrix norm
    return coords[:, _GEN_POSITIONS], resid, np.maximum(1.0, np.linalg.norm(A, axis=(1, 2)))


# Eigenbasis logs are taken while cond(V) stays under _EIGEN_COND; above it the
# principal log comes from logm, and above _SHIFT_COND no shifted branch is tried.
_EIGEN_COND = 1e4
_SHIFT_COND = 1e8
# logm's result is kept while its relative error ||e^L - B|| / ||B|| stays at or below
# this; a larger error refuses the matrix.
_LOGM_ERR = 1e-9
# Branch shifts 2*pi*i*k of a 4x4 matrix's eigenvalue logs, k in -2..2, ordered
# by total |k|, the zero shift (the principal branch) left out.
_SHIFTS = 2j * np.pi * np.array(sorted(
    itertools.product(range(-2, 3), repeat=4), key=lambda ks: sum(abs(k) for k in ks)
)[1:])


def _checked_logm(B) -> np.ndarray:
    """scipy's principal logarithm L of B, kept only when e^L reproduces B within
    _LOGM_ERR relative (1-norm); a LogBranchError otherwise.

    The check replaces logm's own warning about an inaccurate result, which is
    therefore not shown.
    """
    import warnings

    import scipy.linalg
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "logm result may be inaccurate", RuntimeWarning)
        try:
            L = scipy.linalg.logm(B)
        except Exception as exc:  # near the float limit logm overflows, or raises a bare Exception
            raise LogBranchError(f"no accurate logarithm: logm fails ({exc})") from None
    E = linalg.expm_stack(L)
    if not np.isfinite(E).all():
        raise LogBranchError(f"no accurate logarithm: e^L is not finite "
                             f"(1-norm of L {np.linalg.norm(L, 1):.1e})")
    err = np.linalg.norm(E - B, 1) / np.linalg.norm(B, 1)
    if not err <= _LOGM_ERR:
        raise LogBranchError(f"no accurate logarithm: e^L misses the matrix by {err:.1e} "
                             f"relative")
    return L


def _principal(B):
    """Principal logarithms of a (G, m, m) stack and the eigendecomposition they come from.

    One eig gives B = V diag(lam) V^-1 for every row.  A row whose cond(V) is at
    most _EIGEN_COND takes V diag(log lam) V^-1; the others take _checked_logm,
    whose LogBranchError is that row's fault (None for the rest).  Returns the
    logs, the faults, and (log lam, V, V^-1, cond(V)), V^-1 only where cond(V)
    is at most _SHIFT_COND (the identity elsewhere).
    """
    lam, V = np.linalg.eig(B)
    cond = np.linalg.cond(V)
    logs = np.log(lam)
    # rows past _SHIFT_COND (or with a nan cond) invert the identity instead: their
    # log comes from logm and they try no branch, so that V^-1 is never used
    Vinv = np.linalg.inv(np.where((cond <= _SHIFT_COND)[:, None, None], V,
                                  np.eye(V.shape[-1])))
    L = (V * logs[:, None, :]) @ Vinv
    faults = [None] * len(B)
    for g in np.flatnonzero(~(cond <= _EIGEN_COND)):
        try:
            L[g] = _checked_logm(B[g])
        except LogBranchError as exc:
            faults[g] = exc
    return L, faults, (logs, V, Vinv, cond)


def principal_logs(B) -> tuple[np.ndarray, list]:
    """Principal logarithms of a (G, m, m) stack, and per row None or the
    LogBranchError that refuses it (see _principal), whose log is then no
    logarithm of the row."""
    L, faults, _ = _principal(B)
    return L, faults


def span_logs(B, tol: float = 1e-9) -> tuple[np.ndarray, list]:
    """Generator coefficients of a logarithm in the 11-generator span of each matrix of
    a (G, 4, 4) stack, and per row None or the LogBranchError that refuses it.

    The matrices must be invertible matchgates (tilde convention); this is not
    checked.  A row keeps its principal log when that lies in the span.  The
    identities guarantee that some branch does, but not necessarily the principal
    one, so a row whose principal log misses the span tries the branches
    V diag(log lam + shift) V^-1 of the same eigendecomposition, shift by shift in
    _SHIFTS order, and keeps the first in the span; no branch is tried when cond(V)
    passes _SHIFT_COND.  A row with no branch in the span is refused with the
    smallest relative residual it saw.
    """
    L, faults, (logs, V, Vinv, cond) = _principal(B)
    coeffs, resid, scale = _project_to_span(L)
    fits = resid <= tol * scale
    best = resid / scale
    unfaulted = np.array([f is None for f in faults], dtype=bool)
    todo = np.flatnonzero(~fits & unfaulted & (cond <= _SHIFT_COND))
    for shift in _SHIFTS:
        if not todo.size:
            break
        c, r, s = _project_to_span((V[todo] * (logs[todo] + shift)[:, None, :]) @ Vinv[todo])
        best[todo] = np.minimum(best[todo], r / s)
        hit = r <= tol * s
        coeffs[todo[hit]] = c[hit]
        fits[todo[hit]] = True
        todo = todo[~hit]
    for g in np.flatnonzero(~fits & unfaulted):
        faults[g] = LogBranchError(f"no logarithm branch found in the generator span "
                                   f"(best residual {best[g]:.3e})")
    return coeffs, faults


def log_to_L(B, tol: float = 1e-9) -> np.ndarray:
    """Generator coefficients of a logarithm of an invertible matchgate.

    Checks that B is invertible and satisfies the identities, then takes
    :func:`span_logs` of B alone.
    """
    B = _as_mat4(B)
    det = np.linalg.det(B)
    if abs(det) <= tol:
        raise MatchgateError(f"matrix is not invertible (|det| = {abs(det):.3e})")
    if not is_matchgate(B, tol=max(tol, 1e-10)):
        raise MatchgateError("matrix fails the matchgate identities")
    [coeffs], [fault] = span_logs(B[None], tol)
    if fault is not None:
        raise fault
    return coeffs


def nullspace_Afive(tol: float = 1e-10) -> tuple[int, np.ndarray]:
    """Rank and nullspace of the five linear constraints <F_i|(A(x)I + I(x)A)|F_0> = 0.

    The system is expressed over the 16 Pauli-product coordinates of A;
    returns (rank, basis) with basis columns spanning the nullspace.
    """
    M = np.zeros((5, 16), dtype=complex)
    for col, P in enumerate(_PAULI16):
        op = np.kron(P, np.eye(4)) + np.kron(np.eye(4), P)
        for row in range(5):
            M[row, col] = _F[row + 1] @ op @ _F[0]
    u, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > tol * s[0]))
    basis = vh[rank:].conj().T
    return rank, basis
