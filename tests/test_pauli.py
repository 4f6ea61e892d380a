import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsim.errors import DimensionError
from mgsim.pauli import (PauliString, PauliSum, ProductState, commutation_sign,
                         embed, expectation, pauli_mul)

labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


@given(labels)
def test_label_round_trip(lbl):
    assert PauliString.from_label(lbl).label() == lbl


@given(labels, labels)
def test_mul_matches_dense(l1, l2):
    n = min(len(l1), len(l2))
    p = PauliString.from_label(l1[:n])
    q = PauliString.from_label(l2[:n])
    prod = pauli_mul(p, q)
    assert np.allclose(prod.to_matrix(), p.to_matrix() @ q.to_matrix(), atol=1e-14)


@given(labels)
def test_hermitian_units_square_to_identity(lbl):
    p = PauliString.from_label(lbl)
    sq = pauli_mul(p, p)
    assert sq.x_mask == 0 and sq.z_mask == 0
    assert sq.scalar == 1  # exact, no tolerance


@given(labels, labels)
def test_commutation_sign_exact(l1, l2):
    n = min(len(l1), len(l2))
    p = PauliString.from_label(l1[:n])
    q = PauliString.from_label(l2[:n])
    sign = commutation_sign(p, q)
    pq = pauli_mul(p, q)
    qp = pauli_mul(q, p)
    assert pq.scalar == sign * qp.scalar


def test_known_products():
    X = PauliString.from_label("X")
    Y = PauliString.from_label("Y")
    assert pauli_mul(X, Y).scalar == 1j  # XY = iZ
    assert pauli_mul(X, Y).label() == "Z"
    assert pauli_mul(Y, X).scalar == -1j


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        pauli_mul(PauliString.from_label("X"), PauliString.from_label("XX"))


def expectation_string(state: ProductState, s: PauliString) -> complex:
    """<state| s |state> for one Pauli string, line by line."""
    if state.n != s.n:
        raise DimensionError(f"line counts differ: {state.n} != {s.n}")
    e = state.single_line_expectations()
    val = s.scalar
    support = s.x_mask | s.z_mask
    while support:
        lsb = support & -support
        k = lsb.bit_length() - 1
        xb = (s.x_mask >> k) & 1
        zb = (s.z_mask >> k) & 1
        val *= e["Y"][k] if (xb and zb) else (e["X"][k] if xb else e["Z"][k])
        support ^= lsb
    return val


def test_embed_expectation_example():
    z = PauliString.from_label("Z")
    z3 = embed(z, [3], 3)
    state = ProductState.computational([0, 0, 1])
    assert expectation_string(state, z3) == -1


def test_embed_rejects_duplicates():
    p = PauliString.from_label("XY")
    with pytest.raises(DimensionError):
        embed(p, [2, 2], 3)


def test_sum_expectation_matches_dense(rng):
    for _ in range(200):
        n = 3
        strings = [
            PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                        int(rng.integers(0, 4)), complex(rng.normal(), rng.normal()))
            for _ in range(5)
        ]
        s = PauliSum.from_strings(strings, n=n)
        state = ProductState.normalized(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        vec = state.to_vector()
        dense = np.vdot(vec, s.to_matrix() @ vec)
        assert abs(expectation(state, s) - dense) < 1e-12


def test_expectation_linear(rng):
    n = 4
    state = ProductState.normalized(rng.normal(size=(n, 2)))
    a = PauliSum.from_strings([PauliString(n, 3, 5, 0, 0.7)], n=n)
    b = PauliSum.from_strings([PauliString(n, 1, 2, 1, -0.4j)], n=n)
    lhs = expectation(state, a + PauliSum(n, {key: 2.5 * v for key, v in b.terms.items()}))
    rhs = expectation(state, a) + 2.5 * expectation(state, b)
    assert abs(lhs - rhs) < 1e-12


def test_sum_accumulates_and_prunes():
    x = PauliString.from_label("X")
    s = PauliSum.from_strings([x, x.with_coeff(-1.0)])
    assert len(s) == 0


def test_restricted_rejects_wide_support():
    s = PauliSum.from_strings([PauliString.from_label("IZ")])
    with pytest.raises(DimensionError):
        s.restricted(1)
    assert len(s.restricted(2)) == 1


def test_product_state_validation():
    with pytest.raises(ValueError):
        ProductState(np.array([[1.0, 1.0]]))  # not normalized
    st2 = ProductState.normalized([[1, 1], [2, 0]])
    assert np.allclose(np.linalg.norm(st2.amps, axis=1), 1.0)


def test_to_vector_line1_is_msb():
    state = ProductState.computational([1, 0])
    vec = state.to_vector()
    assert vec[2] == 1  # |10> -> index 2 with line 1 as MSB


@settings(max_examples=30)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_single_line_expectations_computational(b1, b2, b3):
    state = ProductState.computational([b1, b2, b3])
    e = state.single_line_expectations()
    assert np.allclose(e["Z"], [1 - 2 * b1, 1 - 2 * b2, 1 - 2 * b3])
    assert np.allclose(e["X"], 0) and np.allclose(e["Y"], 0)
