import math

import numpy as np
import pytest
from conftest import computational, dense_expectation, pauli, terms_expectation
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsim.errors import DimensionError
from mgsim.pauli import PauliString, ProductState, commutation_sign, pauli_mul

labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)


@given(labels)
def test_label_round_trip(lbl):
    assert pauli(lbl).label() == lbl


@given(labels, labels)
def test_mul_matches_dense(l1, l2):
    n = min(len(l1), len(l2))
    p = pauli(l1[:n])
    q = pauli(l2[:n])
    prod = pauli_mul(p, q)
    assert np.allclose(prod.to_matrix(), p.to_matrix() @ q.to_matrix(), atol=1e-14)


@given(labels)
def test_hermitian_units_square_to_identity(lbl):
    p = pauli(lbl)
    sq = pauli_mul(p, p)
    assert sq.x_mask == 0 and sq.z_mask == 0
    assert sq.scalar == 1  # exact, no tolerance


@given(labels, labels)
def test_commutation_sign_exact(l1, l2):
    n = min(len(l1), len(l2))
    p = pauli(l1[:n])
    q = pauli(l2[:n])
    sign = commutation_sign(p, q)
    pq = pauli_mul(p, q)
    qp = pauli_mul(q, p)
    assert pq.scalar == sign * qp.scalar


def test_known_products():
    X = pauli("X")
    Y = pauli("Y")
    assert pauli_mul(X, Y).scalar == 1j  # XY = iZ
    assert pauli_mul(X, Y).label() == "Z"
    assert pauli_mul(Y, X).scalar == -1j


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        pauli_mul(pauli("X"), pauli("XX"))


def test_scalar_is_the_phase_as_a_unit_coefficient_times_a_power_of_i():
    # bit for bit, signed zeros included: 1j**3 alone is complex(-0.0, -1.0)
    parts = lambda c: [(abs(v), math.copysign(1.0, v)) for v in (c.real, c.imag)]
    for p in range(4):
        assert parts(PauliString(1, 0, 0, p).scalar) == parts((1.0 + 0j) * 1j ** p)


def test_terms_expectation_reference_matches_dense(rng):
    for _ in range(200):
        n = 3
        terms = {}
        for _ in range(5):
            x, z, p = int(rng.integers(0, 8)), int(rng.integers(0, 8)), int(rng.integers(0, 4))
            val = complex(rng.normal(), rng.normal()) * PauliString(n, x, z, p).scalar
            terms[x, z] = terms.get((x, z), 0j) + val
        state = ProductState.normalized(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
        assert abs(terms_expectation(state, terms) - dense_expectation(state, terms)) < 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_to_vector_is_the_kron_product(rng, n):
    state = ProductState.normalized(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
    ref = np.array([1.0 + 0j])
    for amps in state.amps:
        ref = np.kron(ref, amps)
    assert state.to_vector().tobytes() == ref.tobytes()  # bitwise, signed zeros included


def test_product_state_validation():
    with pytest.raises(ValueError):
        ProductState(np.array([[1.0, 1.0]]))  # not normalized
    st2 = ProductState.normalized([[1, 1], [2, 0]])
    assert np.allclose(np.linalg.norm(st2.amps, axis=1), 1.0)


def test_to_vector_line1_is_msb():
    state = computational([1, 0])
    vec = state.to_vector()
    assert vec[2] == 1  # |10> -> index 2 with line 1 as MSB


@settings(max_examples=30)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_single_line_expectations_computational(b1, b2, b3):
    state = computational([b1, b2, b3])
    e = state.single_line_expectations()
    assert np.allclose(e["Z"], [1 - 2 * b1, 1 - 2 * b2, 1 - 2 * b3])
    assert np.allclose(e["X"], 0) and np.allclose(e["Y"], 0)
