import itertools

import numpy as np
import pytest

from mgsim import matchgate as mg
from mgsim.errors import MatchgateError

SWAP_GATE = np.eye(4)[[0, 2, 1, 3]].astype(complex)


def random_entries(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def test_identity_is_matchgate():
    assert mg.is_matchgate(np.eye(4))
    vals = mg.identities(np.eye(4))
    assert np.abs(vals).max() == 0


def test_swap_gate_fails_first_identity():
    vals = mg.identities(SWAP_GATE)
    assert vals[0] == 2
    assert not mg.is_matchgate(SWAP_GATE)


def test_homogeneity(rng):
    B = mg.sample_matchgate((4, 4), 1.0, random_entries(rng, 10))
    for lam in (0.1, 10.0, -3j):
        assert mg.is_matchgate(lam * B) == mg.is_matchgate(B)


def test_sample_matchgate_all_pivots(rng):
    for ij in itertools.product(range(1, 5), repeat=2):
        for _ in range(5):
            B = mg.sample_matchgate(ij, complex(rng.normal(), rng.normal()) + 2.0,
                                    random_entries(rng, 10))
            assert mg.is_matchgate(B, tol=1e-10)
            assert mg.reduced_check(B, ij, tol=1e-10)


def test_reduced_check_needs_nonzero_pivot():
    B = np.eye(4, dtype=complex)
    with pytest.raises(MatchgateError):
        mg.reduced_check(B, (1, 2))  # B_12 = 0


def test_identities_containing_counts():
    for ij in itertools.product(range(1, 5), repeat=2):
        assert len(mg.identities_containing(ij)) == 5


def test_g_vw_structure_and_det_check(rng):
    V = random_entries(rng, (2, 2))
    W = random_entries(rng, (2, 2))
    W = W * np.sqrt(np.linalg.det(V) / np.linalg.det(W))
    B = mg.g_vw(V, W)
    v2, w2 = mg.extract_vw(B)
    assert np.allclose(v2, V) and np.allclose(w2, W)
    assert mg.is_matchgate(mg.swap_convention(B), tol=1e-10)
    # G(V, W) is a matchgate iff det V = det W
    assert not mg.is_matchgate(mg.swap_convention(mg.g_vw(V, 2 * W)), tol=1e-10)


def test_predicate_equivalence_samples(rng):
    for _ in range(100):
        B = mg.sample_matchgate((4, 4), 1.0 + 0.3j, random_entries(rng, 10))
        assert mg.eigenvector_predicate(B, tol=1e-9)
    for _ in range(100):
        B = random_entries(rng, (4, 4))
        assert mg.is_matchgate(B, tol=1e-9) == mg.eigenvector_predicate(B, tol=1e-9)


def test_antisym_basis_orthogonal():
    F = mg.antisym_basis()
    gram = F @ F.T
    assert np.allclose(gram, np.diag(np.diag(gram)))
    assert np.all(np.diag(gram) > 0)


def test_generator_count_and_labels():
    gens = mg.generators11()
    assert len(gens) == 11
    stacked = np.array([g.reshape(-1) for g in gens])
    assert np.linalg.matrix_rank(stacked) == 11


def test_exp_L_diagonal_example():
    alpha = 0.7
    coeffs = np.zeros(11, dtype=complex)
    coeffs[0] = 1j * alpha / 2  # II
    coeffs[10] = -1j * alpha / 2  # ZI
    B = mg.exp_L(coeffs)
    assert np.allclose(B, np.diag([1, 1, np.exp(1j * alpha), np.exp(1j * alpha)]))


def test_exp_L_outputs_are_matchgates(rng):
    for _ in range(50):
        B = mg.exp_L(0.5 * random_entries(rng, 11))
        assert mg.is_matchgate(B, tol=1e-10)
        assert abs(np.linalg.det(B)) > 1e-12


def test_group_closure(rng):
    for _ in range(30):
        B1 = mg.exp_L(0.4 * random_entries(rng, 11))
        B2 = mg.exp_L(0.4 * random_entries(rng, 11))
        assert mg.is_matchgate(B1 @ B2, tol=1e-10)


def test_log_round_trip(rng):
    for _ in range(50):
        coeffs = 0.5 * random_entries(rng, 11)
        B = mg.exp_L(coeffs)
        rec = mg.log_to_L(B)
        assert np.linalg.norm(mg.exp_L(rec) - B) <= 1e-9 * max(1.0, np.linalg.norm(B))


def test_log_branch_shift_needed():
    # eigenvalues on the negative axis force a non-principal branch combination
    B = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    assert mg.is_matchgate(B)
    coeffs = mg.log_to_L(B)
    assert np.linalg.norm(mg.exp_L(coeffs) - B) < 1e-9


def test_log_rejects_bad_inputs():
    with pytest.raises(MatchgateError):
        mg.log_to_L(SWAP_GATE)  # not a matchgate
    with pytest.raises(MatchgateError):
        mg.log_to_L(np.diag([1.0, 0.0, 0.0, 0.0]))  # singular


def test_nullspace_is_generator_span():
    rank, basis = mg.nullspace_Afive()
    assert rank == 5
    assert basis.shape[1] == 11
    gen_coords = np.array([mg.pauli_coords(G) for G in mg.generators11()])
    joint = np.vstack([basis.T, gen_coords])
    assert np.linalg.matrix_rank(joint, tol=1e-10) == 11


def test_diagonal_characterization(rng):
    d = random_entries(rng, 4)
    d[3] = d[1] * d[2] / d[0]
    assert mg.is_matchgate(np.diag(d))
    assert not mg.is_matchgate(np.diag([1, 1, 1, -1.0]))


def test_zero_pattern_implies_det_match(rng):
    # matchgates supported on the two parity blocks have det V = det W
    for _ in range(20):
        B = np.zeros((4, 4), dtype=complex)
        vals = random_entries(rng, 7)
        (B[0, 0], B[3, 3], B[0, 3], B[3, 0], B[1, 1], B[2, 2], B[2, 1]) = vals
        # solve the one surviving identity M_1 = 0 for the last free entry
        B[1, 2] = (B[1, 1] * B[2, 2] - B[0, 0] * B[3, 3] + B[0, 3] * B[3, 0]) / B[2, 1]
        assert mg.is_matchgate(B, tol=1e-10)
        V, W = mg.extract_vw(B)
        assert abs(np.linalg.det(V) - np.linalg.det(W)) < 1e-9


def test_swap_convention_involution(rng):
    B = random_entries(rng, (4, 4))
    assert np.allclose(mg.swap_convention(mg.swap_convention(B)), B)
