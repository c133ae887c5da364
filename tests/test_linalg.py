import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsums.linalg import (as_complex_matrix, det_batch, gram_batch,
                            shifted_det_batch, symmetric_means_batch)

from conftest import (eig_symmetric_means, lu_shifted_det, naive_matmul_gram,
                      random_complex)


# Single matrices go through the batched kernels as stacks of one.

def gram_of(X):
    return gram_batch(np.asarray(X, dtype=complex)[None])[0]


def means_of(X):
    return symmetric_means_batch(np.asarray(X, dtype=complex)[None])[0]


def shifted_det_of(X, c):
    return float(shifted_det_batch(np.asarray(X, dtype=complex)[None], c)[0])


def test_gram_identity():
    assert np.allclose(gram_of(np.eye(2)), np.eye(2))


def test_gram_diagonal():
    assert np.allclose(gram_of(np.diag([1.0, 2.0])), np.diag([1.0, 4.0]))


def test_gram_matches_triple_loop():
    rng = np.random.default_rng(7)
    X = random_complex(rng, 2, 3)
    assert np.allclose(gram_of(X), naive_matmul_gram(X), atol=1e-12)


def test_gram_is_hermitian_exactly():
    rng = np.random.default_rng(8)
    X = random_complex(rng, 3, 5)
    G = gram_of(X)
    assert np.array_equal(G, G.conj().T)


def test_symmetric_means_identity():
    for n in (1, 2, 3, 4):
        p = means_of(np.eye(n))
        assert np.allclose(p, np.ones(n), atol=1e-12)


def test_symmetric_means_diagonal_example():
    # eigenvalues of X X* are {1, 4}: e_1 = 5, e_2 = 4, so p = (2.5, 4).
    p = means_of(np.diag([1.0, 2.0]))
    assert np.allclose(p, [2.5, 4.0], atol=1e-12)


def test_symmetric_means_match_eigen_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        X = random_complex(rng, 3, 3)
        assert np.allclose(means_of(X), eig_symmetric_means(X),
                           rtol=1e-9, atol=1e-12)


def test_symmetric_means_first_and_last():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        X = random_complex(rng, n, n)
        p = means_of(X)
        fro = float(np.sum(np.abs(X) ** 2))
        det = abs(np.linalg.det(X)) ** 2
        assert p[0] * n == pytest.approx(fro, rel=1e-10)
        assert p[-1] == pytest.approx(det, rel=1e-10)


def test_symmetric_means_principal_minors_n5():
    rng = np.random.default_rng(13)
    for _ in range(10):
        X = random_complex(rng, 5, 5)
        assert np.allclose(means_of(X), eig_symmetric_means(X),
                           rtol=1e-8, atol=1e-10)


def test_symmetric_means_clamps_rank_deficient():
    v = np.array([[1.0 + 0.5j], [0.3 - 0.2j], [0.7j]])
    X = v @ v.conj().T          # rank one, p_2 = p_3 = 0 up to round-off
    p = means_of(X)
    assert p[1] >= 0.0 and p[2] >= 0.0
    assert p[1] < 1e-10 and p[2] < 1e-12


def test_shifted_det_identity_example():
    assert shifted_det_of(np.eye(2), 1.0) == pytest.approx(4.0, rel=1e-12)


def test_shifted_det_diagonal_example():
    assert shifted_det_of(np.diag([1.0, 2.0]), 1.0) == pytest.approx(10.0, rel=1e-12)


def test_shifted_det_matches_lu_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        X = random_complex(rng, 4, 4)
        for c in (0.1, 1.0, 10.0):
            assert shifted_det_of(X, c) == pytest.approx(lu_shifted_det(X, c), rel=1e-10)


def test_shifted_det_rejects_negative_shift():
    with pytest.raises(ValueError):
        shifted_det_of(np.eye(2), -0.5)


def test_as_complex_matrix_rejects_nan():
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_batched_paths_match_scalar():
    # Each row of a stack against the scalar oracles, square and not.
    rng = np.random.default_rng(19)
    for n, T in ((2, 2), (3, 4), (4, 3), (1, 1)):
        Xb = np.stack([random_complex(rng, n, T) for _ in range(40)])
        pb = symmetric_means_batch(Xb)
        vb = shifted_det_batch(Xb, 0.7)
        for row in range(Xb.shape[0]):
            assert np.allclose(pb[row], eig_symmetric_means(Xb[row]), rtol=1e-9,
                               atol=1e-12 * pb[row, 0] ** n)
            assert vb[row] == pytest.approx(lu_shifted_det(Xb[row], 0.7), rel=1e-10)


def test_det_batch_matches_numpy():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        Mb = np.stack([random_complex(rng, n, n) for _ in range(30)])
        assert np.allclose(det_batch(Mb), np.linalg.det(Mb), rtol=1e-9, atol=1e-12)


def test_gram_batch_matches_scalar():
    rng = np.random.default_rng(29)
    Xb = np.stack([random_complex(rng, 3, 2) for _ in range(10)])
    G = gram_batch(Xb)
    for row in range(10):
        assert np.allclose(G[row], naive_matmul_gram(Xb[row]), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       c=st.floats(0.0, 50.0))
def test_decomposition_identity_property(seed, n, c):
    rng = np.random.default_rng(seed)
    X = random_complex(rng, n, n)
    assert shifted_det_of(X, c) == pytest.approx(lu_shifted_det(X, c), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
def test_mclaurin_and_newton_property(seed, n):
    rng = np.random.default_rng(seed)
    p = means_of(random_complex(rng, n, n))
    roots = [p[i] ** (1.0 / (i + 1)) for i in range(n)]
    for a, b in zip(roots, roots[1:]):
        assert b <= a * (1 + 1e-9)
    padded = np.concatenate([[1.0], p])
    for i in range(1, n):
        assert padded[i] ** 2 >= padded[i - 1] * padded[i + 1] * (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4))
def test_min_det_one_root_chain_property(seed, n):
    # With det(X X*) >= 1 the means satisfy p_k >= p_1^(1/2^(k-1)).
    rng = np.random.default_rng(seed)
    X = random_complex(rng, n, n)
    det = abs(np.linalg.det(X)) ** 2
    if det < 1e-12:
        return
    X = X * det ** (-1.0 / (2 * n))
    p = means_of(X)
    assert p[-1] == pytest.approx(1.0, rel=1e-8)
    for k in range(1, n):
        assert p[k - 1] >= p[0] ** (1.0 / 2 ** (k - 1)) * (1 - 1e-9)
