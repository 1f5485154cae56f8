import math

import numpy as np
import pytest

from isotropy.geometry import JohnDecomposition, canonical_john
from isotropy.johnsparse import (
    ApproxJohn,
    SparsifyRejectionError,
    choose_M,
    sparsify,
    verify,
)
from isotropy.samplers import random_stream


def pair_fixture_1d():
    return JohnDecomposition(points=np.array([[1.0], [-1.0]]), weights=np.array([0.5, 0.5]))


class TestChooseM:
    def test_direct_evaluation(self):
        # (1 / 0.25^2) * 6 * ln(24) = 96 * 3.178... = 305.09...
        assert choose_M(6, 0.25, 1.0) == 306

    def test_floor_rule(self):
        # C n ln(n / eps) below n+1 activates the floor.
        assert choose_M(3, 0.9, 0.1) == 4

    def test_quarter_scaling_in_eps(self):
        m1 = choose_M(6, 0.125, 1.0)
        m2 = choose_M(6, 0.25, 1.0)
        # Halving eps quadruples the leading factor (the log grows a bit too).
        assert m1 > 4 * m2 * 0.9 and m1 >= m2

    def test_validation(self):
        with pytest.raises(ValueError, match="eps must lie in"):
            choose_M(4, 1.5, 1.0)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            choose_M(0, 0.5, 1.0)
        with pytest.raises(ValueError, match="C must be positive"):
            choose_M(4, 0.5, 0.0)


class TestSparsify:
    def test_cross_polytope_n2_seed0(self):
        jd = canonical_john("cross-polytope", 2)
        a = sparsify(jd, eps=0.5, rng=random_stream(0, 0), C=2.0)
        assert a.residual_norm < 0.5
        rep = verify(a)
        assert rep["centroid_norm"] <= 1e-10 * math.sqrt(a.M)
        assert rep["u_norm_sqrt_m"] <= 4.0
        assert np.allclose(np.linalg.norm(a.points, axis=1), 1.0, atol=1e-10)

    def test_simplex_n4_success_rate(self):
        jd = canonical_john("simplex", 4)
        successes = 0
        for seed in range(20):
            try:
                a = sparsify(jd, eps=0.25, rng=random_stream(seed, 1), C=2.0, max_attempts=8)
            except SparsifyRejectionError:
                continue
            successes += 1
            assert a.residual_norm < 0.25
            assert a.attempts <= 8
        assert successes >= 19

    def test_degenerate_one_dimensional_identity(self):
        # With the +-z pair the empirical second moment is exactly 1, so
        # the residual reduces to the recentering term u^2.
        a = sparsify(pair_fixture_1d(), eps=0.5, rng=random_stream(0, 0), C=2.0)
        assert a.residual_norm == pytest.approx(float(a.shift[0] ** 2), abs=1e-12)
        assert a.residual_norm < 0.5

    def test_rejection_error_carries_counts(self):
        jd = canonical_john("cross-polytope", 8)
        with pytest.raises(SparsifyRejectionError) as err:
            sparsify(jd, eps=0.05, rng=random_stream(0, 0), C=0.01, max_attempts=4)
        assert err.value.attempts == 4
        assert err.value.deviation_failures + err.value.point_sum_failures >= 4

    def test_certificate_error_when_C_is_too_small(self):
        # At n=1 the draws are +-1, so the second moment is exactly 1 and the point sum is
        # at most M <= 2 sqrt(M) for M <= 4: every draw is accepted.  After recentering the
        # residual is mean(x)^2.  C=0.01 gives M=3, which is odd, so |mean(x)| >= 1/3 and
        # the residual is at least 1/9 > eps = 0.1 on every stream: the certificate fails
        # loudly rather than retry.
        with pytest.raises(ValueError, match="certificate failed"):
            sparsify(pair_fixture_1d(), eps=0.1, rng=random_stream(0, 0), C=0.01, max_attempts=1)

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps must lie in"):
            sparsify(pair_fixture_1d(), eps=0.0, rng=random_stream(0, 0))

    def test_residual_bound_shape(self):
        # Accepted draws obey |S| <= eps/2 + 4n/M by construction.
        jd = canonical_john("cross-polytope", 4)
        a = sparsify(jd, eps=0.3, rng=random_stream(1, 0), C=2.0)
        assert a.residual_norm <= 0.15 + 4.0 * a.n / a.M + 1e-12

    def test_mean_residual_does_not_grow_with_C(self):
        # Larger C means larger M; stochastic comparison of 20-seed means
        # with a 10 percent overlap allowance.
        jd = canonical_john("simplex", 4)
        means = {}
        for c in (2.0, 4.0):
            residuals = [
                sparsify(jd, 0.25, random_stream(seed, 77), C=c, max_attempts=16).residual_norm
                for seed in range(20)
            ]
            means[c] = float(np.mean(residuals))
        assert means[4.0] <= means[2.0] * 1.10


class TestVerify:
    def test_matches_stored_residual(self):
        jd = canonical_john("simplex", 3)
        a = sparsify(jd, eps=0.3, rng=random_stream(2, 0), C=2.0)
        rep = verify(a)
        assert rep["residual_norm"] == pytest.approx(a.residual_norm, abs=1e-12)

    def test_hand_built_pair(self):
        a = ApproxJohn(points=np.array([[1.0], [-1.0]]), shift=np.zeros(1), residual_norm=0.0, attempts=1)
        rep = verify(a)
        assert rep == {"residual_norm": 0.0, "u_norm_sqrt_m": 0.0, "centroid_norm": 0.0}

    def test_perturbation_is_flagged(self):
        jd = canonical_john("cross-polytope", 3)
        a = sparsify(jd, eps=0.4, rng=random_stream(3, 0), C=2.0)
        pts = a.points.copy()
        pts[0, 0] += 0.1
        tampered = ApproxJohn(points=pts, shift=a.shift, residual_norm=a.residual_norm, attempts=1)
        rep = verify(tampered)
        assert rep["centroid_norm"] == pytest.approx(0.1, abs=1e-9)
        assert abs(rep["residual_norm"] - a.residual_norm) > 1e-6


class TestSerialization:
    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            ApproxJohn(points=np.ones((3, 2)), shift=np.ones(3), residual_norm=0.0, attempts=1)
