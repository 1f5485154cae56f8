import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isotropy.geometry import canonical_john, isotropic_normalization
from isotropy.moments import (
    deviation,
    empirical_second_moment,
    log_moment,
    concentration_report,
    whiten,
)
from isotropy.samplers import SampleBatch, direct_draws, john_support, random_stream


def batch_of(vectors):
    return SampleBatch(np.asarray(vectors, dtype=float))


def report_of(vectors):
    """The concentration report of one batch, passed as a single chunk."""
    y = np.asarray(vectors, dtype=float)
    return concentration_report([y], len(y))


class TestEmpiricalSecondMoment:
    def test_single_vector(self):
        t = empirical_second_moment(batch_of([[math.sqrt(2), 0.0]]))
        assert np.allclose(t, np.diag([2.0, 0.0]), atol=1e-15)

    def test_orthonormal_pair(self):
        t = empirical_second_moment(batch_of([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(t, np.diag([0.5, 0.5]))

    def test_cube_n4_pilot_band(self):
        # Pilot run at this seed gives deviation 0.0214; the acceptance
        # band is 0.15.
        body = isotropic_normalization("cube", 4)
        rng = random_stream(0, 0)
        batch = batch_of(direct_draws(body, 10_000, rng))
        assert deviation(empirical_second_moment(batch)) <= 0.15


class TestDeviation:
    def test_identity(self):
        assert deviation(np.eye(3)) == 0.0

    def test_diagonal(self):
        assert deviation(np.diag([1.2, 0.7])) == pytest.approx(0.3, abs=1e-15)

    def test_exact_john_mixture(self):
        # The four cross-polytope supports, weighted equally, give T = id
        # exactly in expectation; a batch enumerating them has deviation 0.
        support, probs = john_support(canonical_john("cross-polytope", 2))
        assert np.allclose(probs, 0.25)
        t = empirical_second_moment(batch_of(support))
        assert deviation(t) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((60, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        d1 = deviation(empirical_second_moment(batch_of(y)))
        d2 = deviation(empirical_second_moment(batch_of(y @ q.T)))
        assert abs(d1 - d2) <= 1e-9


class TestLogMoment:
    def test_john_norms_give_sqrt_n_for_every_p(self):
        jd = canonical_john("simplex", 4)
        from isotropy.samplers import john_draws

        pts = john_draws(jd, 64, random_stream(0, 0))
        batch = batch_of(pts)
        for p in (2.0, 3.7, math.log(64), 25.0):
            assert log_moment(batch, p) == pytest.approx(2.0, rel=1e-12)

    def test_single_vector(self):
        assert log_moment(batch_of([[2.0, 0.0]]), 3.0) == pytest.approx(2.0, rel=1e-15)

    def test_two_norms(self):
        batch = batch_of([[1.0, 0.0], [3.0, 0.0]])
        assert log_moment(batch, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_default_exponent_floors_at_two(self):
        batch = batch_of([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]])  # M=3, ln M < 2
        assert log_moment(batch) == log_moment(batch, 2.0)

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError, match="exponent p must be positive"):
            log_moment(batch_of([[1.0, 0.0]]), 0.0)

    def test_zero_vectors_are_handled(self):
        batch = batch_of([[0.0, 0.0], [2.0, 0.0]])
        assert log_moment(batch, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert log_moment(batch_of([[0.0, 0.0]]), 2.0) == 0.0

    def test_no_overflow_for_large_p(self):
        # The small norm's contribution vanishes, leaving 1e150 (1/2)^(1/80).
        batch = batch_of([[1e150, 0.0], [1e120, 0.0]])
        assert log_moment(batch, 80.0) == pytest.approx(1e150 * 0.5 ** (1.0 / 80.0), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone_in_p(self, seed):
        y = np.random.default_rng(seed).standard_normal((32, 4))
        batch = batch_of(y)
        ps = [2.0, 4.0, math.log(32), 9.0]
        vals = [log_moment(batch, p) for p in sorted(ps)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi * (1.0 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    def test_scaling(self, seed, scale):
        y = np.random.default_rng(seed).standard_normal((16, 3))
        a = log_moment(batch_of(y), 4.0)
        b = log_moment(batch_of(scale * y), 4.0)
        assert b == pytest.approx(scale * a, rel=1e-12)


class TestConcentrationReport:
    def test_exact_mixture_has_zero_ratio(self):
        support, _ = john_support(canonical_john("cross-polytope", 2))
        rep = report_of(support)
        assert rep["deviation"] <= 1e-12 and rep["ratio"] <= 1e-11
        assert rep["log_moment"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_requires_three_vectors(self):
        with pytest.raises(ValueError, match="need M >= 3"):
            report_of([[1.0, 0.0], [0.0, 1.0]])

    def test_pilot_envelope(self):
        body = isotropic_normalization("cube", 8)
        for seed in range(3):
            rng = random_stream(seed, 17)
            rep = report_of(direct_draws(body, 1024, rng))
            assert 0.0 < rep["ratio"] <= 4.0
            assert rep["rhs_shape"] < 1.0  # in the regime where the bound is asserted

    def test_ratio_uniform_across_m(self):
        # The empirical constant moves little between M = 2^10 and 2^14
        # (3-seed means; pilot value 1.14, asserted within factor 2).
        body = isotropic_normalization("cube", 8)
        means = {}
        for m in (2**10, 2**14):
            ratios = []
            for seed in range(3):
                rng = random_stream(seed, 23)
                ratios.append(report_of(direct_draws(body, m, rng))["ratio"])
            means[m] = float(np.mean(ratios))
        assert max(means.values()) / min(means.values()) <= 2.0

    def test_shape_term_formula(self):
        y = np.random.default_rng(5).standard_normal((64, 4))
        rep = report_of(y)
        p = math.log(64)
        expected = math.sqrt(p / 64) * log_moment(batch_of(y), p)
        assert rep["rhs_shape"] == pytest.approx(expected, rel=1e-15)
        assert rep["ratio"] == pytest.approx(rep["deviation"] / expected, rel=1e-15)

    def test_one_chunk_is_the_batch_path(self):
        # A sweep or whiten row of at most 4,097 points, and every hit-and-run truncated row, read one chunk.
        for name, n, m in (("cube", 8, 1000), ("ball", 16, 9000), ("simplex", 4, 333)):
            y = direct_draws(isotropic_normalization(name, n), m, random_stream(2, 7))
            rep = report_of(y)
            dev, lm = deviation(empirical_second_moment(batch_of(y))), log_moment(batch_of(y))
            shape = math.sqrt(math.log(m) / m) * lm
            assert rep == {"deviation": dev, "log_moment": lm, "rhs_shape": shape, "ratio": dev / shape}, name

    def test_chunks_match_one_batch(self):
        y = direct_draws(isotropic_normalization("cube", 16), 20_000, random_stream(4, 1))
        whole = report_of(y)
        for cuts in ([4096, 8192, 12288, 16384], [1, 2, 19_999], list(range(1000, 20_000, 1000))):
            rep = concentration_report(np.split(y, cuts), len(y))
            assert rep["log_moment"] == whole["log_moment"] and rep["rhs_shape"] == whole["rhs_shape"]
            assert rep["deviation"] == pytest.approx(whole["deviation"], rel=1e-12, abs=0)

    def test_stream_must_hold_m_vectors(self):
        y = direct_draws(isotropic_normalization("cube", 3), 100, random_stream(0, 0))
        with pytest.raises(ValueError, match="more than M = 99"):
            concentration_report([y[:50], y[50:]], 99)
        with pytest.raises(ValueError, match="holds 100 vectors, not M = 101"):
            concentration_report([y[:50], y[50:]], 101)

    def test_non_finite_chunk(self):
        y = np.ones((10, 2))
        bad = y.copy()
        bad[3, 1] = math.nan
        with pytest.raises(ValueError, match="batch vectors must be finite"):
            concentration_report([y, bad], 20)


class TestEpsilonIsotropy:
    # T is eps-isotropic when deviation(T) = |T - id| <= eps, the rule behind
    # the harness's isotropic column.
    def test_identity_passes(self):
        assert deviation(np.eye(4)) <= 0.01

    def test_out_of_band_eigenvalue_fails(self):
        assert deviation(np.diag([1.2, 0.9])) > 0.1

    def test_matches_quadratic_form_sandwich(self):
        # The extremes of x^T T x / |x|^2 are attained at eigenvectors, so
        # checking random directions plus the eigenvector directions must
        # agree with deviation(T) <= eps.
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n))
            t = 0.05 * (g + g.T) / 2.0 + np.eye(n)
            eps = float(rng.uniform(0.02, 0.3))
            dirs = rng.standard_normal((1000, n))
            dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True), np.linalg.eigh(t)[1].T])
            quad = np.einsum("ij,jk,ik->i", dirs, t, dirs) / np.einsum("ij,ij->i", dirs, dirs)
            sandwiched = bool(np.all(quad >= 1 - eps - 1e-12) and np.all(quad <= 1 + eps + 1e-12))
            assert sandwiched == (deviation(t) <= eps)


class TestWhiten:
    def test_diagonal_example(self):
        out = whiten(np.diag([4.0, 1.0]), np.array([2.0, 3.0]))
        assert np.allclose(out, [1.0, 3.0], atol=1e-12)

    def test_self_whitening_restores_identity(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((500, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
        t = empirical_second_moment(batch_of(y))
        white = whiten(t, y)
        t2 = empirical_second_moment(batch_of(white))
        assert deviation(t2) <= 1e-9

    def test_transform_is_inverse_square_root(self):
        # Whitening the identity's rows gives the matrix of the map itself.
        w = whiten(np.diag([4.0, 0.25]), np.eye(2))
        assert np.allclose(w, np.diag([0.5, 2.0]), atol=1e-14)

    def test_two_stage_distorted_cube(self):
        # Two-stage round trip: whiten fresh samples with a transform
        # estimated from an earlier batch of the same distorted body.
        n, m = 8, 20_000
        body = isotropic_normalization("cube", n)
        distortion = np.array([2.0, 1, 1, 1, 1, 1, 1, 0.5])
        rng = random_stream(0, 33)
        first = direct_draws(body, m, rng) * distortion
        t = empirical_second_moment(batch_of(first))
        fresh = direct_draws(body, m, rng) * distortion
        t2 = empirical_second_moment(batch_of(whiten(t, fresh)))
        assert deviation(t2) <= 0.1
