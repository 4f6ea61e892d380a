"""4x4 matchgate theory: identities, predicates, generators, exp/log maps.

Rows and columns of 4x4 matrices are indexed 1..4, corresponding to the
two-qubit basis states 00, 01, 10, 11.  The ten degree-2 matchgate identities
are taken verbatim in the reversed (tilde) operator convention, in which the
eleven generators are the literal Pauli products

    II; IX, IY, XZ, YZ; IZ, XY, YY, XX, YX, ZI.

A matrix satisfying the identities in the standard Jordan-Wigner convention
instead is related by the basis relabeling 1,2,3,4 -> 1,3,2,4 (a swap of the
two qubits); :func:`swap_convention` performs that relabeling.

Logarithms are taken in the eigenbasis: from B = V diag(lam) V^-1, branch k
is V diag(log lam + 2 pi i k) V^-1, exact and cheap while V is well
conditioned; ``scipy.linalg.logm`` covers defective and nearly defective
matrices.
"""

from __future__ import annotations

import itertools

import numpy as np

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


def swap_convention(B) -> np.ndarray:
    """Relabel basis 1,2,3,4 -> 1,3,2,4 (swap the two qubits)."""
    return _SWAP @ _as_mat4(B) @ _SWAP


def identities(B) -> np.ndarray:
    """The ten matchgate identity values M_1..M_10, evaluated exactly as written."""
    B = _as_mat4(B)
    out = np.empty(10, dtype=complex)
    for m, terms in enumerate(IDENTITY_TERMS):
        out[m] = sum(s * B[a[0] - 1, a[1] - 1] * B[b[0] - 1, b[1] - 1] for s, a, b in terms)
    return out


def _scale2(B) -> float:
    """Degree-2 normalization: max(1, ||B||_F^2)."""
    return max(1.0, float(np.linalg.norm(B) ** 2))


def is_matchgate(B, tol: float = 1e-10) -> bool:
    """True iff all ten identities vanish, relative to the squared matrix scale."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    B = _as_mat4(B)
    return float(np.max(np.abs(identities(B)))) <= tol * _scale2(B)


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
    """Check only the five identities M(ij); valid when B_ij is nonzero."""
    B = _as_mat4(B)
    scale = np.linalg.norm(B)
    if abs(B[ij[0] - 1, ij[1] - 1]) <= tol * scale:
        raise MatchgateError(f"entry B{ij[0]}{ij[1]} is (numerically) zero; reduction needs B_ij != 0")
    vals = identities(B)
    return float(np.max(np.abs(vals[identities_containing(ij)]))) <= tol * _scale2(B)


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


def g_vw(V, W) -> np.ndarray:
    """The fermionic gate G(V, W): V on the even-parity block, W on the odd block.

    G(V, W) is a matchgate iff det V = det W; this constructor does not check
    that, since the parser does.
    """
    V = np.asarray(V, dtype=complex)
    W = np.asarray(W, dtype=complex)
    if V.shape != (2, 2) or W.shape != (2, 2):
        raise MatchgateError("V and W must be 2x2")
    B = np.zeros((4, 4), dtype=complex)
    B[0, 0], B[0, 3], B[3, 0], B[3, 3] = V[0, 0], V[0, 1], V[1, 0], V[1, 1]
    B[1, 1], B[1, 2], B[2, 1], B[2, 2] = W[0, 0], W[0, 1], W[1, 0], W[1, 1]
    return B


def extract_vw(B) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`g_vw` (ignores entries outside the two parity blocks)."""
    B = _as_mat4(B)
    V = np.array([[B[0, 0], B[0, 3]], [B[3, 0], B[3, 3]]])
    W = np.array([[B[1, 1], B[1, 2]], [B[2, 1], B[2, 2]]])
    return V, W


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
    """True iff F_0 is an eigenvector of both B(x)B and B^T (x) B^T."""
    B = _as_mat4(B)
    f0 = _F[0]
    f0n2 = f0 @ f0
    scale = _scale2(B) * np.linalg.norm(f0)
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
    """Coordinates of a 4x4 matrix over the 16 Pauli products P_i (x) P_j (i-major)."""
    return np.einsum("kij,ji->k", _PAULI16, _as_mat4(A)) / 4


_GEN_POSITIONS = [
    _PAULI_NAMES.index(lbl[0]) * 4 + _PAULI_NAMES.index(lbl[1]) for lbl in GENERATOR_LABELS
]
_OFF_POSITIONS = [k for k in range(16) if k not in _GEN_POSITIONS]


def exp_L(coeffs) -> np.ndarray:
    """Matrix exponential of a generator combination; always an invertible matchgate."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (11,):
        raise MatchgateError(f"expected 11 coefficients, got shape {coeffs.shape}")
    import scipy.linalg

    A = sum(c * G for c, G in zip(coeffs, _GENS))
    return scipy.linalg.expm(A)


def _project_to_span(A) -> tuple[np.ndarray, float]:
    """Generator coefficients of A and the norm of the out-of-span residual."""
    coords = pauli_coords(A)
    coeffs = coords[_GEN_POSITIONS]
    resid = 2.0 * float(np.linalg.norm(coords[_OFF_POSITIONS]))  # coords norm -> matrix norm
    return coeffs, resid


# Eigenbasis logs are taken while cond(V) stays under _EIGEN_COND; above it the
# principal log comes from logm, and above _SHIFT_COND no shifted branch is tried.
_EIGEN_COND = 1e4
_SHIFT_COND = 1e8
# Branch shifts 2*pi*i*k of a 4x4 matrix's eigenvalue logs, k in -2..2, ordered
# by total |k|, the zero shift (the principal branch) left out.
_SHIFTS = 2j * np.pi * np.array(sorted(
    itertools.product(range(-2, 3), repeat=4), key=lambda ks: sum(abs(k) for k in ks)
)[1:])


def _candidate_logs(B):
    """Yield matrix logarithms of B: the principal one, then branch-shifted ones.

    All come from one eigendecomposition B = V diag(lam) V^-1 as
    V diag(log lam + 2*pi*i*k) V^-1, ordered by total shift magnitude; logm
    stands in for the principal one when V is ill conditioned, as for a
    defective matrix, and no shifted candidate is tried when V is nearly
    singular.
    """
    lam, V = np.linalg.eig(B)
    cond = np.linalg.cond(V)
    if cond > _SHIFT_COND:
        import scipy.linalg
        yield scipy.linalg.logm(B)
        return
    logs = np.log(lam)
    Vinv = np.linalg.inv(V)
    if cond <= _EIGEN_COND:
        yield (V * logs) @ Vinv
    else:
        import scipy.linalg
        yield scipy.linalg.logm(B)
    for shift in _SHIFTS:
        yield (V * (logs + shift)) @ Vinv


def principal_log(B) -> np.ndarray:
    """The principal matrix logarithm, from the eigenbasis unless V is ill conditioned."""
    return next(_candidate_logs(B))


def log_to_L(B, tol: float = 1e-9) -> np.ndarray:
    """Generator coefficients of a logarithm of an invertible matchgate.

    Checks that B is invertible and satisfies the identities, then takes
    :func:`span_log`.
    """
    B = _as_mat4(B)
    det = np.linalg.det(B)
    if abs(det) <= tol:
        raise MatchgateError(f"matrix is not invertible (|det| = {abs(det):.3e})")
    if not is_matchgate(B, tol=max(tol, 1e-10)):
        raise MatchgateError("matrix fails the matchgate identities")
    return span_log(B, tol)


def span_log(B, tol: float = 1e-9) -> np.ndarray:
    """Generator coefficients of the first logarithm branch of B in the 11-generator span.

    B must be an invertible matchgate (tilde convention); this is not checked.
    Branches are searched because the identities guarantee that some branch
    lies in the span, but not necessarily the principal one.
    """
    best_resid = np.inf
    for A in _candidate_logs(B):
        coeffs, resid = _project_to_span(A)
        scale = max(1.0, float(np.linalg.norm(A)))
        if resid <= tol * scale:
            return coeffs
        best_resid = min(best_resid, resid / scale)
    raise LogBranchError(
        f"no logarithm branch found in the generator span (best residual {best_resid:.3e})"
    )


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
