"""Gate exponents over the Jordan-Wigner generators.

A gate is represented as e^A with

    A = sum_{mu<nu} 2 a_{mu,nu} c_mu c_nu  +  sum_sigma b_sigma c_sigma  +  s I,

i.e. the full antisymmetric double sum over quadratic terms plus linear terms
plus a scalar.  Diagonal quadratic terms (mu = nu) contribute only a scalar
and are folded into s.  The compile routines take gates the parser has
already checked, repeat none of its checks, and return the coefficients as
(a, b, s), a mapping (mu, nu) with mu < nu to a_{mu,nu} and b mapping sigma
to b_sigma: :func:`compile_matrix` turns a G(V, W) on nearest-neighbour lines
or a general matchgate on lines 1-2 into this form through the 4x4 generator
logarithm, :func:`compile_diag` a diagonal matchgate on any pair through
commuting Z logs, and :func:`compile_u1` a 1-qubit gate on line 1.
``circuits.compile`` turns them into exp gates, the form an exp line of a
circuit file is parsed to, and :func:`to_pauli_sum` expands an exp gate over
Pauli strings for the oracle.

Phases are never taken on faith from shorthand like "Z_k = c_{2k-1}c_{2k}":
every constant here is produced by the exact Pauli algebra (the true relation
carries a factor -i) and is cross-checked against the dense oracle in tests.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import matchgate
from .errors import DimensionError, GateClassError
from .jw import JwFamily, jw
from .pauli import PauliString, PauliSum, pauli_mul


def to_pauli_sum(g, family: JwFamily) -> PauliSum:
    """Expand the A of an exp gate over Pauli strings exactly, on the family's line count."""
    if max(g.lines, default=0) > family.n:
        raise DimensionError(f"gate on lines {g.lines}, family has n={family.n}")
    strings = []
    for (mu, nu), val in g.param("a"):
        strings.append(pauli_mul(family.c(mu), family.c(nu)).with_coeff(2 * val))
    for sigma, val in g.param("b"):
        strings.append(family.c(sigma).with_coeff(val))
    strings.append(PauliString(family.lines, 0, 0, 0, g.param("s")))
    return PauliSum.from_strings(strings, n=family.lines)


@lru_cache(maxsize=None)
def _pair_phases() -> tuple[complex, ...]:
    """Scalar phi with c_mu c_nu = phi * (bare Pauli), for the six 2-line pairs."""
    out = []
    for mu, nu in matchgate.GENERATOR_PAIRS:
        out.append(pauli_mul(jw(2, mu), jw(2, nu)).scalar)
    return tuple(out)


def compile_matrix(B, k: int, tol: float = 1e-9) -> tuple[dict, dict, complex]:
    """Compile a parsed gvw or mg12 matchgate B on lines (k, k+1).

    ``B`` is the 4x4 matrix in standard qubit order, already checked by the
    parser.  Under the documented 1,2,3,4 -> 1,3,2,4 relabeling the tilde
    generators become the standard 2-line JW operators, so the coefficients
    of the logarithm transfer verbatim: slot sigma (1..4) is the linear
    coefficient of c_sigma and the six quadratic slots give
    2 a_{mu,nu} = coeff / phi_{mu,nu}.  Linear terms are refused for k > 1,
    where a local c_sigma lacks the Z string of lines 1..k-1.
    """
    coeffs = matchgate.span_log(matchgate.swap_convention(B), tol=tol)
    offset = 2 * (k - 1)
    scale = max(1.0, float(np.linalg.norm(coeffs)))
    linear_floor = (tol if k > 1 else 1e-12) * scale
    b = {}
    for sigma in range(1, 5):
        val = coeffs[sigma]
        if abs(val) <= linear_floor:
            continue
        if k > 1:
            raise GateClassError(
                f"unexpected linear coefficient b_{sigma} = {val} on lines ({k}, {k + 1}), "
                f"where c_sigma would need the Z string of lines 1..{k - 1}"
            )
        b[sigma] = val
    a = {}
    for (mu, nu), phi, val in zip(matchgate.GENERATOR_PAIRS, _pair_phases(), coeffs[5:]):
        if abs(val) > 1e-15 * scale:
            a[(offset + mu, offset + nu)] = val / (2 * phi)
    return a, b, coeffs[0]


def compile_diag(d, k: int, l: int) -> tuple[dict, dict, complex]:
    """Compile a parsed diag(d1..d4) on lines k < l (any pair) via commuting Z logs."""
    lam = np.log(np.asarray(d, dtype=complex))
    # principal logs may disagree by 2*pi*i across the constraint; repair on lam[3]
    lam[3] = lam[1] + lam[2] - lam[0]
    gamma = (lam[0] + lam[1] + lam[2] + lam[3]) / 4
    alpha = (lam[0] + lam[1] - lam[2] - lam[3]) / 4
    beta = (lam[0] - lam[1] + lam[2] - lam[3]) / 4
    # Z_k = -i c_{2k-1} c_{2k}: alpha * Z_k means 2 a_{2k-1,2k} = -i alpha
    a = {(2 * k - 1, 2 * k): -0.5j * alpha, (2 * l - 1, 2 * l): -0.5j * beta}
    return a, {}, gamma


def compile_u1(U) -> tuple[dict, dict, complex]:
    """Compile a parsed invertible 1-qubit gate on line 1."""
    L = matchgate.principal_log(np.asarray(U, dtype=complex))
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
    return a, b, delta

