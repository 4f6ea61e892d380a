import numpy as np
import pytest

from mgsim.engine_quadratic import _observable_indices, _propagate_columns
from mgsim.jw import JwFamily
from mgsim.pauli import PauliSum, pauli_mul


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def heisenberg_observable(gates, k: int, family: JwFamily, observable: str = "Z") -> PauliSum:
    """C^{-1} O C expanded as a Pauli sum over the family's n lines, from the
    quadratic engine's two propagated columns."""
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
