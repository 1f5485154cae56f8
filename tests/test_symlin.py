import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isotropy.symlin import (
    NotPositiveSemidefiniteError,
    SymLinError,
    SymMatrix,
    eigen,
    eigen_batch,
    inv_sqrt,
    operator_norm,
    operator_norm_batch,
)


def random_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return SymMatrix((g + g.T) / 2.0)


def test_symmetry_is_exact_bitwise():
    g = np.random.default_rng(0).standard_normal((6, 6))
    a = SymMatrix(g).mat
    assert np.array_equal(a, a.T)


def test_rejects_non_finite():
    bad = np.eye(3)
    bad[0, 1] = np.nan
    with pytest.raises(SymLinError):
        SymMatrix(bad)


def test_from_dense_rejects_asymmetric():
    a = np.eye(3)
    a[0, 1] = 1e-3
    with pytest.raises(SymLinError):
        SymMatrix.from_dense(a)


class TestRankOneAccumulate:
    """Rank-one updates acc + w * y (x) y through SymMatrix arithmetic."""

    def test_coordinate_projector(self):
        out = SymMatrix(np.outer([1.0, 0.0], [1.0, 0.0]))
        assert np.array_equal(out.mat, np.diag([1.0, 0.0]))

    def test_direct_expansion(self):
        out = SymMatrix.identity(2) + 0.5 * SymMatrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        assert np.allclose(out.mat, [[1.5, 0.5], [0.5, 1.5]], atol=0)

    def test_resolution_of_identity(self):
        acc = 0.0 * SymMatrix.identity(3)
        for i in range(3):
            acc = acc + SymMatrix(np.outer(np.eye(3)[i], np.eye(3)[i]))
        assert np.array_equal(acc.mat, np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(SymLinError):
            SymMatrix.identity(3) + SymMatrix(np.outer(np.ones(2), np.ones(2)))

    def test_non_finite_weight(self):
        with pytest.raises(SymLinError):
            SymMatrix.identity(2) + math.inf * SymMatrix(np.outer(np.ones(2), np.ones(2)))


class TestEigen:
    def test_diagonal(self):
        dec = eigen(SymMatrix(np.diag([3.0, 1.0])))
        assert np.array_equal(dec.eigenvalues, [3.0, 1.0])
        assert np.array_equal(np.abs(dec.eigenvectors), np.eye(2))

    def test_two_by_two_by_hand(self):
        # [[2, 1], [1, 2]] has characteristic roots 3 and 1 with
        # eigenvectors (1, 1) and (1, -1) up to normalization and sign.
        dec = eigen(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
        v0, v1 = dec.eigenvectors[:, 0], dec.eigenvectors[:, 1]
        assert abs(abs(v0 @ (np.ones(2) / np.sqrt(2))) - 1.0) < 1e-12
        assert abs(abs(v1 @ (np.array([1.0, -1.0]) / np.sqrt(2))) - 1.0) < 1e-12

    def test_multiply_back_4x4(self):
        a = random_symmetric(np.random.default_rng(7), 4)
        dec = eigen(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(recon - a.mat).max() <= 1e-10 * (1.0 + np.abs(a.mat).max())

    def test_sorted_descending(self):
        a = random_symmetric(np.random.default_rng(11), 9)
        vals = eigen(a).eigenvalues
        assert np.all(np.diff(vals) <= 0)

    def test_batch_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for n in range(2, 17):
            mats = rng.standard_normal((20, n, n))
            mats = (mats + mats.transpose(0, 2, 1)) / 2.0
            vals, vecs = eigen_batch(mats)
            recon = vecs @ (vals[:, :, None] * vecs.transpose(0, 2, 1))
            scale = 1.0 + np.abs(mats).max(axis=(1, 2), keepdims=True)
            assert (np.abs(recon - mats) / scale).max() <= 1e-10
            ortho = vecs.transpose(0, 2, 1) @ vecs - np.eye(n)
            assert np.abs(ortho).max() <= 1e-10

    def test_one_dimensional(self):
        dec = eigen(SymMatrix(np.array([[4.0]])))
        assert dec.eigenvalues[0] == 4.0 and dec.eigenvectors[0, 0] == 1.0


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(SymMatrix.identity(5)) == 1.0

    def test_largest_absolute_eigenvalue(self):
        assert operator_norm(SymMatrix(np.diag([3.0, -5.0, 1.0]))) == 5.0

    def test_two_by_two(self):
        assert abs(operator_norm(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))) - 3.0) < 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((8, 5, 5))
        mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        batch = operator_norm_batch(mats)
        singles = [operator_norm(SymMatrix(m)) for m in mats]
        assert np.allclose(batch, singles, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_norm_negation_and_shift(seed, n):
    a = random_symmetric(np.random.default_rng(seed), n)
    assert operator_norm(a) == pytest.approx(operator_norm(-1.0 * a), abs=0, rel=1e-12)
    c = float(np.random.default_rng(seed + 1).uniform(-3, 3))
    shifted = a + c * SymMatrix.identity(n)
    assert operator_norm(shifted) <= operator_norm(a) + abs(c) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_rank_one_norm_is_squared_length(seed, n):
    y = np.random.default_rng(seed).standard_normal(n)
    norm = operator_norm(SymMatrix(np.outer(y, y)))
    assert norm == pytest.approx(float(y @ y), rel=1e-12)


class TestInvSqrt:
    def test_identity(self):
        assert np.allclose(inv_sqrt(SymMatrix.identity(4)).mat, np.eye(4), atol=1e-14)

    def test_diagonal(self):
        w = inv_sqrt(SymMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(w.mat, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            g = rng.standard_normal((n, n))
            a = SymMatrix.from_dense(g @ g.T + 0.3 * np.eye(n), asym_tol=1e-8)
            w = inv_sqrt(a)
            err = operator_norm(SymMatrix.from_dense(w.mat @ a.mat @ w.mat, asym_tol=1e-6) - SymMatrix.identity(n))
            assert err <= 1e-9

    def test_commutes_with_input(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((6, 6))
        a = SymMatrix.from_dense(g @ g.T + 0.5 * np.eye(6), asym_tol=1e-8)
        w = inv_sqrt(a)
        comm = w.mat @ a.mat - a.mat @ w.mat
        assert np.abs(comm).max() <= 1e-9 * operator_norm(a)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            inv_sqrt(SymMatrix(np.diag([1.0, -0.5])))

    def test_floor_clamps_tiny_eigenvalues(self):
        w = inv_sqrt(SymMatrix(np.diag([1.0, 1e-12])), floor=1e-8)
        assert w.mat[1, 1] == pytest.approx(1e4, rel=1e-12)
        # A tiny negative eigenvalue within the floor is regularized too.
        w2 = inv_sqrt(SymMatrix(np.diag([1.0, -1e-12])), floor=1e-8)
        assert w2.mat[1, 1] == pytest.approx(1e4, rel=1e-12)

    def test_floor_must_be_positive(self):
        with pytest.raises(SymLinError):
            inv_sqrt(SymMatrix.identity(2), floor=0.0)
