import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isotropy.symlin import ASYM_TOL, inv_sqrt, operator_norm


def random_symmetric(rng, n):
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def random_spd(rng, n, shift=0.3):
    g = rng.standard_normal((n, n))
    return g @ g.T + shift * np.eye(n)


def test_symmetry_is_exact_bitwise():
    # inv_sqrt mirrors its upper triangle, so its result is symmetric bit for bit.
    rng = np.random.default_rng(0)
    for n in range(2, 10):
        w = inv_sqrt(random_spd(rng, n))
        assert np.array_equal(w, w.T)


def test_rejects_non_finite():
    bad = np.eye(3)
    bad[0, 1] = bad[1, 0] = np.nan
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 2, 2] = np.inf
    for a in (bad, stack):
        with pytest.raises(ValueError, match="finite"):
            operator_norm(a)
    with pytest.raises(ValueError, match="finite"):
        inv_sqrt(bad)


def test_rejects_asymmetric():
    a = np.eye(3)
    a[0, 1] = 1e-3
    stack = np.stack([np.eye(3), a])
    for bad in (a, stack):
        with pytest.raises(ValueError, match="symmetric"):
            operator_norm(bad)
    with pytest.raises(ValueError, match="symmetric"):
        inv_sqrt(a)
    # Asymmetry below the relative tolerance is accepted.
    a[0, 1] = 1e-10
    assert operator_norm(a) == pytest.approx(1.0, rel=1e-9)
    assert operator_norm(np.stack([np.eye(3), a])).shape == (2,)


@pytest.mark.parametrize("member", [0, -1])
@pytest.mark.parametrize("entry", [(0, 4), (4, 3), (1, 0)], ids=["0-last", "last-penultimate", "1-0"])
def test_one_asymmetric_entry_decides_its_stack(member, entry):
    # One entry off its mirror in the first or last member of a (4, 5, 5) stack raises at twice
    # the tolerance ASYM_TOL * (1 + scale) and passes at half of it; every member's scale is 2.
    rng = np.random.default_rng(3)
    g = rng.uniform(-1.0, 1.0, (4, 5, 5))
    stack = g + g.swapaxes(-1, -2)
    stack /= 2.0
    stack[:, 0, 0] = 2.0
    tol = ASYM_TOL * (1.0 + 2.0)
    for factor, raises in ((2.0, True), (0.5, False)):
        bad = stack.copy()
        bad[(member, *entry)] += factor * tol
        if raises:
            with pytest.raises(ValueError, match="not symmetric within tolerance"):
                operator_norm(bad)
        else:
            assert operator_norm(bad).shape == (4,)


@pytest.mark.parametrize(
    "shape",
    [(3,), (2, 3), (4, 2, 3), (2, 2, 2, 2), (0, 0), (3, 0, 0)],
)
def test_rejects_bad_shapes(shape):
    with pytest.raises(ValueError, match="expected"):
        operator_norm(np.zeros(shape))


def test_inv_sqrt_takes_one_matrix_only():
    with pytest.raises(ValueError, match="expected"):
        inv_sqrt(np.stack([np.eye(2), np.eye(2)]))


class TestEigen:
    """The spectra behind operator_norm and inv_sqrt, checked against eigendecompositions known by hand."""

    def test_diagonal(self):
        a = np.diag([3.0, 1.0])
        assert operator_norm(a) == 3.0
        assert np.array_equal(inv_sqrt(a), np.diag([1.0 / np.sqrt(3.0), 1.0]))

    def test_two_by_two_by_hand(self):
        # [[2, 1], [1, 2]] has characteristic roots 3 and 1 with
        # eigenvectors (1, 1) and (1, -1) up to normalization and sign.
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert abs(operator_norm(a) - 3.0) < 1e-12
        p3 = np.full((2, 2), 0.5)
        p1 = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(inv_sqrt(a), p3 / np.sqrt(3.0) + p1, atol=1e-12)

    def test_multiply_back_4x4(self):
        a = random_spd(np.random.default_rng(7), 4)
        w_inv = np.linalg.inv(inv_sqrt(a))
        assert np.abs(w_inv @ w_inv - a).max() <= 1e-10 * (1.0 + np.abs(a).max())

    def test_sorted_descending(self):
        # inv_sqrt forms Q diag(lambda^-1/2) Q^T with Q's columns in descending
        # eigenvalue order, then mirrors the upper triangle: the whitening
        # output's bytes depend on both.
        a = random_spd(np.random.default_rng(11), 9)
        vals, vecs = np.linalg.eigh(a)
        q = vecs[:, ::-1]
        w = (q * (1.0 / np.sqrt(vals[::-1]))) @ q.T
        assert np.array_equal(inv_sqrt(a), np.triu(w) + np.triu(w, 1).T)

    def test_batch_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for n in range(2, 17):
            mats = rng.standard_normal((20, n, n))
            mats = (mats + mats.transpose(0, 2, 1)) / 2.0
            vals, vecs = np.linalg.eigh(mats)
            recon = vecs @ (vals[:, :, None] * vecs.transpose(0, 2, 1))
            scale = 1.0 + np.abs(mats).max(axis=(1, 2), keepdims=True)
            assert (np.abs(recon - mats) / scale).max() <= 1e-10
            ortho = vecs.transpose(0, 2, 1) @ vecs - np.eye(n)
            assert np.abs(ortho).max() <= 1e-10
            assert np.allclose(operator_norm(mats), np.abs(vals).max(axis=1), rtol=1e-12, atol=0)

    def test_one_dimensional(self):
        assert operator_norm(np.array([[-4.0]])) == 4.0
        assert operator_norm(np.full((3, 1, 1), 4.0)).tolist() == [4.0, 4.0, 4.0]
        assert inv_sqrt(np.array([[4.0]]))[0, 0] == 0.5


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == 1.0

    def test_largest_absolute_eigenvalue(self):
        assert operator_norm(np.diag([3.0, -5.0, 1.0])) == 5.0

    def test_two_by_two(self):
        assert abs(operator_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) - 3.0) < 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((8, 5, 5))
        mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        batch = operator_norm(mats)
        singles = [operator_norm(m) for m in mats]
        assert batch.shape == (8,) and all(type(s) is float for s in singles)
        assert np.allclose(batch, singles, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_norm_negation_and_shift(seed, n):
    a = random_symmetric(np.random.default_rng(seed), n)
    assert operator_norm(a) == pytest.approx(operator_norm(-a), abs=0, rel=1e-12)
    c = float(np.random.default_rng(seed + 1).uniform(-3, 3))
    shifted = a + c * np.eye(n)
    assert operator_norm(shifted) <= operator_norm(a) + abs(c) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_rank_one_norm_is_squared_length(seed, n):
    y = np.random.default_rng(seed).standard_normal(n)
    norm = operator_norm(np.outer(y, y))
    assert norm == pytest.approx(float(y @ y), rel=1e-12)


class TestInvSqrt:
    def test_identity(self):
        assert np.allclose(inv_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        w = inv_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(w, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a = random_spd(rng, n)
            w = inv_sqrt(a)
            err = operator_norm(w @ a @ w - np.eye(n))
            assert err <= 1e-9

    def test_commutes_with_input(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 6, shift=0.5)
        w = inv_sqrt(a)
        comm = w @ a - a @ w
        assert np.abs(comm).max() <= 1e-9 * operator_norm(a)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            inv_sqrt(np.diag([1.0, -0.5]))

    def test_floor_clamps_tiny_eigenvalues(self):
        # The floor is 1e-8: eigenvalues below it are clamped to it.
        w = inv_sqrt(np.diag([1.0, 1e-12]))
        assert w[1, 1] == pytest.approx(1e4, rel=1e-12)
        # A tiny negative eigenvalue within the floor is regularized too.
        w2 = inv_sqrt(np.diag([1.0, -1e-12]))
        assert w2[1, 1] == pytest.approx(1e4, rel=1e-12)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            inv_sqrt(np.diag([1.0, -1e-7]))
