import math

import numpy as np
import pytest
from scipy import integrate

from isotropy.bernoulli import (
    BernoulliError,
    bound_ratio,
    rademacher_exact,
    rademacher_trial_norms,
    symmetrization_check,
)
from isotropy.geometry import canonical_john, isotropic_normalization
from isotropy.samplers import RandomStream, direct_draws, john_draws


class TestRademacherEstimate:
    def test_single_point_gives_squared_norm(self):
        y = np.array([[1.0, 2.0, 2.0]])  # norm 3
        norms = rademacher_trial_norms(y, 50, RandomStream(seed=0, stream=0))
        assert np.allclose(norms, 9.0, rtol=1e-12)

    def test_orthonormal_pair_is_always_one(self):
        y = np.eye(2)
        norms = rademacher_trial_norms(y, 100, RandomStream(seed=1, stream=0))
        assert norms.mean() == pytest.approx(1.0, rel=1e-12)

    def test_trials_required(self):
        with pytest.raises(BernoulliError):
            rademacher_trial_norms(np.eye(2), 0, RandomStream(seed=0, stream=0)).mean()

    def test_matches_per_trial_oracle_across_chunk_boundary(self):
        # n = 16 gives chunks of 2^20 / 256 = 4096 signed sums, so 5000
        # trials span one full chunk and a partial one.
        y = direct_draws(isotropic_normalization("cube", 16), 40, RandomStream(seed=3, stream=1))
        norms = rademacher_trial_norms(y, 5000, RandomStream(seed=3, stream=2))
        signs = RandomStream(seed=3, stream=2).signs((5000, 40))
        oracle = np.array([np.linalg.norm((s[:, None] * y).T @ y, 2) for s in signs])
        assert np.allclose(norms, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [2, 16])
    def test_khintchine_lower_bound(self, n):
        # E Z^2 = sum |y_i|^2 y_i (x) y_i for Z = sum eps_i y_i (x) y_i, so
        # Jensen gives sqrt(v) <= (E|Z|^2)^(1/2) with constant 1, where
        # v = |sum |y_i|^2 y_i (x) y_i|.  Checked on the squared scale within
        # 3 Monte Carlo standard errors of the E|Z|^2 estimate.
        body = isotropic_normalization("cube", n)
        for m in (8, 64, 512):
            rng = RandomStream(seed=0, stream=1000 * n + m)
            y = direct_draws(body, m, rng)
            v = np.linalg.eigvalsh((np.einsum("ij,ij->i", y, y)[:, None] * y).T @ y).max()
            sq = rademacher_trial_norms(y, 400, rng) ** 2
            assert v <= sq.mean() + 3.0 * sq.std(ddof=1) / math.sqrt(sq.size)


class TestRademacherExact:
    def test_single_point(self):
        assert rademacher_exact(np.array([[2.0, 0.0]])) == pytest.approx(4.0, rel=1e-12)

    def test_orthonormal_pair(self):
        assert rademacher_exact(np.eye(2)) == pytest.approx(1.0, rel=1e-12)

    def test_repeated_point_enumeration_by_hand(self):
        # Points e1, e1, e2: the norm is max(|s1 + s2|, 1), which is 2 with
        # probability 1/2 and 1 otherwise, so the mean over the 8 patterns
        # is 1.5.
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert rademacher_exact(pts) == pytest.approx(1.5, rel=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(BernoulliError):
            rademacher_exact(np.ones((21, 2)))

    def test_monte_carlo_matches_exact(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((10, 3))
        exact = rademacher_exact(pts)
        norms = rademacher_trial_norms(pts, 10_000, RandomStream(seed=5, stream=0))
        se = norms.std(ddof=1) / math.sqrt(norms.size)
        assert abs(norms.mean() - exact) <= 4.0 * se


class TestBoundRatio:
    def test_cube_envelope(self):
        body = isotropic_normalization("cube", 8)
        rng = RandomStream(seed=0, stream=7)
        pts = direct_draws(body, 256, rng)
        rep = bound_ratio(pts, 1000, rng, seed=0)
        assert rep.ratio <= 4.0
        assert rep.Q == pytest.approx(np.linalg.norm(pts, axis=1).max(), rel=1e-15)
        assert rep.bound_shape == pytest.approx(
            math.sqrt(math.log(256)) * rep.Q * math.sqrt(rep.base_norm), rel=1e-15
        )

    def test_m_uniformity(self):
        body = isotropic_normalization("cube", 8)
        ratios = {}
        for m in (64, 1024):
            rng = RandomStream(seed=0, stream=100 + m)
            pts = direct_draws(body, m, rng)
            ratios[m] = bound_ratio(pts, 500, rng).ratio
        hi, lo = max(ratios.values()), min(ratios.values())
        assert hi / lo <= 2.0

    def test_scaling_invariance(self):
        # Estimate and bound shape are both homogeneous of degree 2, so the
        # ratio is exactly scale-free (identical signs via identical seeds).
        pts = np.random.default_rng(3).standard_normal((16, 4))
        a = bound_ratio(pts, 200, RandomStream(seed=9, stream=0))
        b = bound_ratio(5.0 * pts, 200, RandomStream(seed=9, stream=0))
        assert b.estimate == pytest.approx(25.0 * a.estimate, rel=1e-12)
        assert b.bound_shape == pytest.approx(25.0 * a.bound_shape, rel=1e-12)
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(BernoulliError):
            bound_ratio(np.eye(2), 10, RandomStream(seed=0, stream=0))


class TestSymmetrization:
    def test_cube_n4(self):
        body = isotropic_normalization("cube", 4)
        draw = lambda m, rng: direct_draws(body, m, rng)
        res = symmetrization_check(draw, 4, 256, 200, RandomStream(seed=0, stream=0))
        assert res.holds()
        assert res.lhs <= res.rhs  # ample slack in practice, not just within noise

    def test_john_sampler_slack_grows_with_m(self):
        jd = canonical_john("cross-polytope", 2)
        draw = lambda m, rng: john_draws(jd, m, rng)
        small = symmetrization_check(draw, 2, 64, 300, RandomStream(seed=0, stream=64))
        large = symmetrization_check(draw, 2, 1024, 300, RandomStream(seed=0, stream=1024))
        assert small.holds() and large.holds()
        assert large.lhs < small.lhs  # deviation shrinks as M grows
        assert large.rhs > 0.0

    def test_one_sample_one_dimension_against_quadrature(self):
        # For M = 1 on the isotropic segment, lhs = E|y^2 - 1| and
        # rhs = 2 E y^2 = 2; quadrature gives the lhs integral exactly.
        oracle, quad_err = integrate.quad(
            lambda t: abs(t * t - 1.0) / (2.0 * math.sqrt(3.0)), -math.sqrt(3.0), math.sqrt(3.0)
        )
        assert quad_err < 1e-6  # the integrand's kink limits quad's error estimate
        assert oracle == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-9)
        body = isotropic_normalization("cube", 1)
        draw = lambda m, rng: direct_draws(body, m, rng)
        res = symmetrization_check(draw, 1, 1, 2000, RandomStream(seed=0, stream=0))
        assert abs(res.lhs - oracle) <= 3.0 * res.lhs_se
        assert abs(res.rhs - 2.0) <= 3.0 * res.rhs_se
        assert res.lhs < 2.0

    def test_trials_required(self):
        body = isotropic_normalization("cube", 2)
        draw = lambda m, rng: direct_draws(body, m, rng)
        with pytest.raises(BernoulliError):
            symmetrization_check(draw, 2, 8, 0, RandomStream(seed=0, stream=0))
