import math

import numpy as np
import pytest
from scipy import integrate

from isotropy import bernoulli
from isotropy.bernoulli import (
    _signs,
    bound_ratio,
    rademacher_exact,
    rademacher_trial_norms,
    symmetrization_check,
)
from isotropy.geometry import canonical_john, isotropic_normalization
from isotropy.samplers import direct_draws, john_draws, random_stream
from isotropy.symlin import operator_norm


@pytest.mark.parametrize("shape", [(0, 3), (5, 0), (5,)])
def test_rejects_empty_or_flat_points(shape):
    pts = np.ones(shape)
    for call in (
        lambda: rademacher_trial_norms(pts, 10, random_stream(0, 0)),
        lambda: rademacher_exact(pts),
        lambda: bound_ratio(pts, 10, random_stream(0, 0)),
    ):
        with pytest.raises(ValueError, match="need an \\(M, n\\) point array"):
            call()


class TestRademacherEstimate:
    def test_single_point_gives_squared_norm(self):
        y = np.array([[1.0, 2.0, 2.0]])  # norm 3
        norms = rademacher_trial_norms(y, 50, random_stream(0, 0))
        assert np.allclose(norms, 9.0, rtol=1e-12)

    def test_orthonormal_pair_is_always_one(self):
        y = np.eye(2)
        norms = rademacher_trial_norms(y, 100, random_stream(1, 0))
        assert norms.mean() == pytest.approx(1.0, rel=1e-12)

    def test_trials_required(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            rademacher_trial_norms(np.eye(2), 0, random_stream(0, 0)).mean()

    def test_matches_per_trial_oracle_across_chunk_boundary(self):
        # n = 16 caps a chunk at 2^19 / 256 = 2048 signed sums, so 5000
        # trials make one 2048-row chunk and a 2952-row last one.
        y = direct_draws(isotropic_normalization("cube", 16), 40, random_stream(3, 1))
        norms = rademacher_trial_norms(y, 5000, random_stream(3, 2))
        signs = _signs(random_stream(3, 2), (5000, 40))
        oracle = np.array([np.linalg.norm((s[:, None] * y).T @ y, 2) for s in signs])
        assert np.allclose(norms, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "m, n, trials",
        [(4096, 16, 400), (4096, 8, 386), (40000, 2, 200)],
        ids=["six-chunks", "two-row-remainder", "small-chunks"],
    )
    def test_streamed_signs_match_one_shot_reference(self, m, n, trials):
        # The reference draws every sign at once and makes one GEMM and one
        # operator_norm call.  At M = 4096 a sign chunk is 64 rows; 64-row
        # chunks with a 2-row last one, or 6-row chunks at M = 40000, would
        # change bits here (BLAS sums a small product in another order).
        y = direct_draws(isotropic_normalization("cube", n), m, random_stream(4, 0))
        norms = rademacher_trial_norms(y, trials, random_stream(4, 1))
        signs = _signs(random_stream(4, 1), (trials, m))
        outer = (y[:, :, None] * y[:, None, :]).reshape(m, n * n)
        reference = operator_norm((signs @ outer).reshape(-1, n, n))
        assert norms.tobytes() == reference.tobytes()

    def test_memory_does_not_follow_trials_times_m(self, traced_peak_mb):
        # One (trials, M) draw held 16 * trials * M bytes: 200 MiB traced here.
        y = np.random.default_rng(0).standard_normal((65536, 2))
        assert traced_peak_mb(lambda: rademacher_trial_norms(y, 200, random_stream(0, 0))) < 16

    @pytest.mark.parametrize("n", [2, 16])
    def test_khintchine_lower_bound(self, n):
        # E Z^2 = sum |y_i|^2 y_i (x) y_i for Z = sum eps_i y_i (x) y_i, so
        # Jensen gives sqrt(v) <= (E|Z|^2)^(1/2) with constant 1, where
        # v = |sum |y_i|^2 y_i (x) y_i|.  Checked on the squared scale within
        # 3 Monte Carlo standard errors of the E|Z|^2 estimate.
        body = isotropic_normalization("cube", n)
        for m in (8, 64, 512):
            rng = random_stream(0, 1000 * n + m)
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

    def test_broken_sign_flip_symmetry_raises(self, monkeypatch):
        # The check must hold under python -O too, so it raises rather than asserts.
        # The flipped pattern is the one single-matrix operator_norm call here.
        norm = bernoulli.operator_norm
        monkeypatch.setattr(bernoulli, "operator_norm", lambda a: norm(a) + (len(a) == 1))
        with pytest.raises(ValueError, match="sign-flip symmetry violated"):
            rademacher_exact(np.eye(3))

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="exact enumeration capped"):
            rademacher_exact(np.ones((21, 2)))

    def test_matches_full_enumeration(self):
        y = np.random.default_rng(16).standard_normal((16, 3))
        # Pattern k gives point 0 the sign of bit 15 and point i + 1 that of
        # bit i, so the first half of the patterns, with point 0 at +1, is
        # what the enumeration streams, and its mean must match to the bit.
        k = np.arange(2**16)
        signs = 1.0 - 2.0 * ((k[:, None] >> np.r_[15, 0:15]) & 1)
        outer = (y[:, :, None] * y[:, None, :]).reshape(16, 9)
        norms = operator_norm((signs @ outer).reshape(-1, 3, 3))
        exact = rademacher_exact(y)
        assert exact == float(np.mean(norms[: 2**15]))
        assert exact == pytest.approx(float(np.mean(norms)), rel=1e-13)

    def test_enumeration_streams_its_patterns(self, traced_peak_mb):
        # All 2^17 patterns at once peaked at 53 MB.
        y = np.random.default_rng(18).standard_normal((18, 2))
        assert traced_peak_mb(lambda: rademacher_exact(y)) < 32

    def test_monte_carlo_matches_exact(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((10, 3))
        exact = rademacher_exact(pts)
        norms = rademacher_trial_norms(pts, 10_000, random_stream(5, 0))
        se = norms.std(ddof=1) / math.sqrt(norms.size)
        assert abs(norms.mean() - exact) <= 4.0 * se


class TestBoundRatio:
    def test_cube_envelope(self):
        body = isotropic_normalization("cube", 8)
        rng = random_stream(0, 7)
        pts = direct_draws(body, 256, rng)
        rep = bound_ratio(pts, 1000, rng)
        assert rep["ratio"] <= 4.0
        assert rep["Q"] == pytest.approx(np.linalg.norm(pts, axis=1).max(), rel=1e-15)
        assert rep["bound_shape"] == pytest.approx(
            math.sqrt(math.log(256)) * rep["Q"] * math.sqrt(rep["base_norm"]), rel=1e-15
        )

    def test_m_uniformity(self):
        body = isotropic_normalization("cube", 8)
        ratios = {}
        for m in (64, 1024):
            rng = random_stream(0, 100 + m)
            pts = direct_draws(body, m, rng)
            ratios[m] = bound_ratio(pts, 500, rng)["ratio"]
        hi, lo = max(ratios.values()), min(ratios.values())
        assert hi / lo <= 2.0

    def test_scaling_invariance(self):
        # Estimate and bound shape are both homogeneous of degree 2, so the
        # ratio is exactly scale-free (identical signs via identical seeds).
        pts = np.random.default_rng(3).standard_normal((16, 4))
        a = bound_ratio(pts, 200, random_stream(9, 0))
        b = bound_ratio(5.0 * pts, 200, random_stream(9, 0))
        assert b["estimate"] == pytest.approx(25.0 * a["estimate"], rel=1e-12)
        assert b["bound_shape"] == pytest.approx(25.0 * a["bound_shape"], rel=1e-12)
        assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="need M >= 3"):
            bound_ratio(np.eye(2), 10, random_stream(0, 0))


class TestSymmetrization:
    def test_cube_n4(self):
        body = isotropic_normalization("cube", 4)
        draw = lambda m, rng: direct_draws(body, m, rng)
        res = symmetrization_check(draw, 4, 256, 200, random_stream(0, 0))
        assert res["holds"]
        assert res["lhs"] <= res["rhs"]  # ample slack in practice, not just within noise

    def test_john_sampler_slack_grows_with_m(self):
        jd = canonical_john("cross-polytope", 2)
        draw = lambda m, rng: john_draws(jd, m, rng)
        small = symmetrization_check(draw, 2, 64, 300, random_stream(0, 64))
        large = symmetrization_check(draw, 2, 1024, 300, random_stream(0, 1024))
        assert small["holds"] and large["holds"]
        assert large["lhs"] < small["lhs"]  # deviation shrinks as M grows
        assert large["rhs"] > 0.0

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
        res = symmetrization_check(draw, 1, 1, 2000, random_stream(0, 0))
        assert abs(res["lhs"] - oracle) <= 3.0 * res["lhs_se"]
        assert abs(res["rhs"] - 2.0) <= 3.0 * res["rhs_se"]
        assert res["lhs"] < 2.0

    def test_trials_required(self):
        body = isotropic_normalization("cube", 2)
        draw = lambda m, rng: direct_draws(body, m, rng)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            symmetrization_check(draw, 2, 8, 0, random_stream(0, 0))
