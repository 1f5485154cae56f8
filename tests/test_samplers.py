import collections
import math

import numpy as np
import pytest

from isotropy.geometry import Ball, Cube, HPolytope, Truncated, canonical_john, isotropic_normalization
from isotropy.samplers import (
    RandomStream,
    SampleBatch,
    SamplerError,
    TruncatedSampler,
    TruncationError,
    default_burn_in,
    default_thin,
    direct_draws,
    john_draws,
    john_support,
    sample_hit_and_run,
    seed_from_env,
)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(seed=7, stream=3).random(32)
        b = RandomStream(seed=7, stream=3).random(32)
        assert np.array_equal(a, b)

    def test_streams_do_not_share_a_prefix(self):
        a = RandomStream(seed=7, stream=0).random(32)
        b = RandomStream(seed=7, stream=1).random(32)
        assert not np.any(a[:8] == b[:8])

    def test_split(self):
        base = RandomStream(seed=11, stream=0)
        child = base.split(99)
        assert child.seed == 11 and child.stream == 99
        assert np.array_equal(child.random(4), RandomStream(seed=11, stream=99).random(4))

    def test_signs_are_plus_minus_one(self):
        s = RandomStream(seed=1, stream=0).signs(1000)
        assert set(np.unique(s)) == {-1.0, 1.0}

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.delenv("ISOTROPY_SEED", raising=False)
        assert seed_from_env(42) == 42
        monkeypatch.setenv("ISOTROPY_SEED", "12345")
        assert seed_from_env(42) == 12345
        monkeypatch.setenv("ISOTROPY_SEED", "not-a-number")
        with pytest.raises(SamplerError):
            seed_from_env(42)


class TestSampleBatch:
    def test_rejects_empty(self):
        with pytest.raises(SamplerError):
            SampleBatch(vectors=np.empty((0, 3)), sampler="x", seed=0, stream=0)

    def test_rejects_non_finite(self):
        with pytest.raises(SamplerError):
            SampleBatch(vectors=np.array([[1.0, np.inf]]), sampler="x", seed=0, stream=0)

    def test_bit_reproducible(self):
        body = isotropic_normalization("cube", 5)
        rng1, rng2 = RandomStream(seed=3, stream=9), RandomStream(seed=3, stream=9)
        b1 = SampleBatch(vectors=direct_draws(body, 100, rng1), sampler="cube", seed=3, stream=9)
        b2 = SampleBatch(vectors=direct_draws(body, 100, rng2), sampler="cube", seed=3, stream=9)
        assert np.array_equal(b1.vectors, b2.vectors)


class TestDirectSamplers:
    def test_cube_support(self):
        body = Cube(halfwidth=math.sqrt(3), n=2)
        pts = direct_draws(body, 500, RandomStream(seed=0, stream=0))
        assert np.abs(pts).max() <= math.sqrt(3)

    def test_ball_support(self):
        pts = direct_draws(Ball(radius=1.0, n=3), 500, RandomStream(seed=1, stream=0))
        assert np.linalg.norm(pts, axis=1).max() <= 1.0

    def test_simplex_support(self):
        body = isotropic_normalization("simplex", 3)
        pts = direct_draws(body, 500, RandomStream(seed=2, stream=0))
        assert all(body.membership(p) for p in pts)

    def test_ellipsoid_support(self):
        from isotropy.geometry import Ellipsoid
        from isotropy.symlin import SymMatrix

        body = Ellipsoid(shape=SymMatrix(np.diag([4.0, 1.0, 0.25])))
        pts = direct_draws(body, 500, RandomStream(seed=3, stream=0))
        assert all(body.membership(p) for p in pts)

    def test_cube_marginal_second_moment(self):
        # var(t^2) = 4/5 for t uniform on [-sqrt(3), sqrt(3)], so the
        # empirical per-coordinate second moment at M = 1e5 has a 3-sigma
        # band of 3 sqrt(0.8 / M) around 1.
        m = 100_000
        pts = direct_draws(isotropic_normalization("cube", 4), m, RandomStream(seed=4, stream=0))
        second = (pts**2).mean(axis=0)
        band = 3.0 * math.sqrt(0.8 / m)
        assert np.abs(second - 1.0).max() <= band

    def test_ball_radial_cdf(self):
        n, m = 3, 50_000
        body = isotropic_normalization("ball", n)
        radii = np.linalg.norm(direct_draws(body, m, RandomStream(seed=5, stream=0)), axis=1) / body.radius
        for q in (0.5, 0.9):
            target = q**n
            se = math.sqrt(target * (1.0 - target) / m)
            assert abs(float(np.mean(radii <= q)) - target) <= 3.0 * se

    def test_unsupported_variant(self):
        poly = HPolytope(rows=np.array([[1.0], [-1.0]]), offsets=np.array([1.0, 1.0]))
        with pytest.raises(SamplerError):
            direct_draws(poly, 1, RandomStream(seed=0, stream=0))

    @pytest.mark.parametrize("variant,n", [("cube", 4), ("ball", 6), ("simplex", 3)])
    def test_trace_law(self, variant, n):
        m = 50_000
        body = isotropic_normalization(variant, n)
        pts = direct_draws(body, m, RandomStream(seed=6, stream=n))
        sq = np.einsum("ij,ij->i", pts, pts)
        se = sq.std(ddof=1) / math.sqrt(m)
        assert abs(sq.mean() - n) <= 3.0 * se


class TestHitAndRun:
    def test_emitted_states_are_members(self):
        body = Ball(radius=1.0, n=2)
        pts = sample_hit_and_run(body, np.zeros(2), burn_in=10, thin=1, rng=RandomStream(seed=0, stream=0), count=200)
        assert all(body.membership(p) for p in pts)

    def test_rotated_cube_mean(self):
        # 30-degree rotated cube as an H-polytope; target mean is 0 by symmetry.
        theta = math.pi / 6.0
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        body = HPolytope(rows=np.vstack([rot.T, -rot.T]), offsets=np.ones(4))
        pts = sample_hit_and_run(body, np.zeros(2), burn_in=1000, thin=5, rng=RandomStream(seed=0, stream=1), count=10_000)
        assert all(body.membership(p) for p in pts)
        mean = pts.mean(axis=0)
        se = pts.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_single_step_from_center(self):
        body = Cube(halfwidth=1.0, n=2)
        pts = sample_hit_and_run(body, np.zeros(2), burn_in=0, thin=1, rng=RandomStream(seed=2, stream=0), count=1)
        assert pts.shape == (1, 2) and body.membership(pts[0])

    def test_start_outside_rejected(self):
        with pytest.raises(SamplerError):
            sample_hit_and_run(Ball(radius=1.0, n=2), np.array([5.0, 0.0]), 0, 1, RandomStream(seed=0, stream=0))

    def test_defaults_scale_with_dimension(self):
        assert default_burn_in(8) == 400 and default_thin(8) == 16


class TestTruncatedSampling:
    def test_vacuous_truncation_uses_rejection(self):
        # Ball radius R sqrt(n) = 4 contains the whole cube (diameter
        # radius sqrt(12) < 4), so nothing is ever rejected and the output
        # is distributed exactly like the direct sampler.
        body = isotropic_normalization("cube", 4)
        sampler = TruncatedSampler(body, 2.0, RandomStream(seed=7, stream=0))
        assert sampler.acceptance == 1.0 and sampler.mode == "rejection"
        pts = sampler.draw(50_000)
        sq = np.einsum("ij,ij->i", pts, pts)
        se = sq.std(ddof=1) / math.sqrt(pts.shape[0])
        assert abs(sq.mean() - 4.0) <= 3.0 * se

    def test_ball_truncation_support(self):
        body = isotropic_normalization("ball", 10)
        pts = TruncatedSampler(body, 1.0, RandomStream(seed=8, stream=0)).draw(2000)
        assert np.linalg.norm(pts, axis=1).max() <= math.sqrt(10.0) + 1e-12

    def test_thin_intersection_switches_to_hit_and_run(self):
        body = isotropic_normalization("cube", 2)
        sampler = TruncatedSampler(body, 0.0138, RandomStream(seed=3, stream=0))
        assert sampler.mode == "hit-and-run"
        assert 1e-6 <= sampler.acceptance < 1e-3
        pts = sampler.draw(40)
        assert all(sampler.truncated.membership(p) for p in pts)

    def test_too_aggressive_truncation(self):
        body = isotropic_normalization("cube", 2)
        with pytest.raises(TruncationError):
            TruncatedSampler(body, 1e-4, RandomStream(seed=3, stream=0))

    def test_single_sample_helper(self):
        body = isotropic_normalization("cube", 3)
        x = TruncatedSampler(body, 1.0, RandomStream(seed=9, stream=0)).draw(1)[0]
        assert np.linalg.norm(x) <= math.sqrt(3.0) and body.membership(x)

    def test_truncated_cube_spectral_band(self):
        # Cutting the n=16 cube at radius sqrt(n) removes about half its
        # mass, and a 40M-sample pilot puts the truncated per-coordinate
        # second moment at 0.8248.  The empirical spectrum at M = 1e5 must
        # sit in a band around that value, not around 1.
        from isotropy.moments import empirical_second_moment
        from isotropy.symlin import eigen

        body = isotropic_normalization("cube", 16)
        sampler = TruncatedSampler(body, 1.0, RandomStream(seed=0, stream=11))
        pts = sampler.draw(100_000)
        batch = SampleBatch(vectors=pts, sampler="truncated:cube", seed=0, stream=11)
        vals = eigen(empirical_second_moment(batch)).eigenvalues
        assert 0.78 <= vals.min() and vals.max() <= 0.87


class TestJohnSampler:
    def test_cross_polytope_enumeration(self):
        jd = canonical_john("cross-polytope", 2)
        support, probs = john_support(jd)
        assert support.shape == (4, 2)
        assert np.allclose(probs, 0.25, atol=0)
        second = (support.T * probs) @ support
        assert np.abs(second - np.eye(2)).max() <= 1e-12

    def test_outputs_live_on_the_support_sphere(self):
        jd = canonical_john("simplex", 5)
        pts = john_draws(jd, 2000, RandomStream(seed=0, stream=0))
        assert np.allclose(np.linalg.norm(pts, axis=1), math.sqrt(5.0), atol=1e-12)

    def test_single_draw(self):
        jd = canonical_john("cross-polytope", 3)
        y = john_draws(jd, 1, RandomStream(seed=1, stream=0))[0]
        assert abs(np.linalg.norm(y) - math.sqrt(3.0)) <= 1e-12

    def test_cube_vertices_frequencies(self):
        # Each of the 8 support points has sampling probability
        # c_i / n = (3/8) / 3 = 1/8; multinomial 3-sigma bands at M = 1e5.
        m = 100_000
        jd = canonical_john("cube-vertices", 3)
        support, probs = john_support(jd)
        assert np.allclose(probs, 0.125, atol=0)
        pts = john_draws(jd, m, RandomStream(seed=0, stream=42))
        keys = [tuple(np.sign(p).astype(int)) for p in support]
        counts = collections.Counter(tuple(np.sign(p).astype(int)) for p in pts)
        freqs = np.array([counts[k] / m for k in keys])
        se = math.sqrt(0.125 * 0.875 / m)
        assert np.abs(freqs - 0.125).max() <= 3.0 * se

    def test_batch_provenance(self):
        jd = canonical_john("cross-polytope", 2)
        rng = RandomStream(seed=4, stream=5)
        batch = SampleBatch(vectors=john_draws(jd, 10, rng), sampler="john", seed=rng.seed, stream=rng.stream)
        assert batch.sampler == "john" and batch.seed == 4 and batch.stream == 5
        assert batch.M == 10 and batch.n == 2
