from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from mgsim.linalg import expm_stack

# The largest relative 1-norm error against the reference that a result may show.
# Scaling and squaring loses about one bit per squaring, and a norm of 1e3 needs 8.
REL_ERR = 1e-12

NORMS = np.logspace(-8, 3, 12)


def _rel_err(got, ref) -> float:
    return np.abs(got - ref).sum(axis=-2).max() / np.abs(ref).sum(axis=-2).max()


def _with_norm(A, norm):
    return A * (norm / np.abs(A).sum(axis=0).max())


def _random_matrix(m, rng):
    return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))


@pytest.mark.parametrize("m", range(1, 11))
def test_matches_scipy_at_every_size_and_norm(rng, m):
    # skew-Hermitian plus a small general part at every norm, so that e^A stays
    # finite at norm 1e3; a general matrix up to norm 100
    for norm in NORMS:
        G = _random_matrix(m, rng)
        cases = [G - G.conj().T + 0.1 * _random_matrix(m, rng)] + ([G] if norm <= 100 else [])
        for A in cases:
            A = _with_norm(A, norm)
            assert _rel_err(expm_stack(A), scipy.linalg.expm(A)) <= REL_ERR, (m, norm)


def _exact_nilpotent_exp(A) -> np.ndarray:
    """sum_{k<m} A^k / k! of a nilpotent m x m matrix, in exact rational arithmetic."""
    m = len(A)
    re = [[Fraction(float(v)) for v in row] for row in A.real]
    im = [[Fraction(float(v)) for v in row] for row in A.imag]
    term_re = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    term_im = [[Fraction(0)] * m for _ in range(m)]
    total_re, total_im = [row[:] for row in term_re], [row[:] for row in term_im]
    for k in range(1, m):
        term_re, term_im = (
            [[sum(term_re[i][l] * re[l][j] - term_im[i][l] * im[l][j] for l in range(m)) / k
              for j in range(m)] for i in range(m)],
            [[sum(term_re[i][l] * im[l][j] + term_im[i][l] * re[l][j] for l in range(m)) / k
              for j in range(m)] for i in range(m)])
        for i in range(m):
            for j in range(m):
                total_re[i][j] += term_re[i][j]
                total_im[i][j] += term_im[i][j]
    return np.array([[complex(float(x), float(y)) for x, y in zip(r, s)]
                     for r, s in zip(total_re, total_im)])


@pytest.mark.parametrize("m", range(1, 11))
def test_zero_and_nilpotent_blocks(rng, m):
    # scipy's expm misses large nilpotent exponentials by up to 1e-9 relative, so
    # they are checked against their finite series, summed exactly
    assert np.array_equal(expm_stack(np.zeros((m, m), dtype=complex)), np.eye(m))
    for norm in NORMS:
        A = _with_norm(np.triu(_random_matrix(m, rng), 1), norm) if m > 1 else np.zeros((1, 1))
        assert _rel_err(expm_stack(A), _exact_nilpotent_exp(A)) <= REL_ERR, (m, norm)


def test_each_matrix_takes_its_own_scaling(rng):
    # one stack mixes norms from 1e-8 to 1e3, so the squarings differ per matrix;
    # a stack of one, or the matrix alone, gives the same bits
    for m in (2, 5, 10):
        A = np.array([_with_norm(_random_matrix(m, rng) - _random_matrix(m, rng).T.conj(), norm)
                      for norm in NORMS])
        E = expm_stack(A)
        assert E.shape == A.shape
        for a, e in zip(A, E):
            assert _rel_err(e, scipy.linalg.expm(a)) <= REL_ERR
        for i in range(len(A)):
            assert np.array_equal(expm_stack(A[i:i + 1]), E[i:i + 1])
            assert np.array_equal(expm_stack(A[i]), E[i])
    # leading axes are kept
    B = rng.normal(size=(2, 3, 4, 4))
    assert np.array_equal(expm_stack(B), expm_stack(B.reshape(6, 4, 4)).reshape(B.shape))


@pytest.mark.filterwarnings("error")
def test_non_finite_and_huge_matrices_give_nan(rng):
    # a nan or inf norm, or one that would need more than 52 squarings, is no
    # squaring count: such a matrix gives nan, with no warning, and the rest of the
    # stack is unaffected
    good = _random_matrix(3, rng)
    bad = [np.full((3, 3), np.nan), np.diag([np.inf, 0, 0]), np.diag([1e300, 0, 0]),
           np.triu(np.full((3, 3), 1e300), 1), np.diag([1e17j, 0, 0])]
    E = expm_stack(np.array([good] + bad))
    assert np.array_equal(E[0], expm_stack(good))
    assert np.isnan(E[1:]).all()
    # 2^52 theta_13 is about 2.4e16: just below it the squarings go ahead
    assert np.isfinite(expm_stack(np.diag([1e16j, 0, 0]))).all()
