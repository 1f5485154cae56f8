import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isotropy.geometry import canonical_john, isotropic_normalization
from isotropy.harness import ExperimentError, parse_config, run_experiment
from isotropy.moments import _power_mean, _streamed_second_moment, concentration_report, deviation
from isotropy.samplers import _row_norms, direct_draws, john_support, random_stream
from isotropy.symlin import inv_sqrt


def second_moment(vectors):
    """T = (1/M) sum y_i (x) y_i of one batch, through the Gram fold as a single chunk."""
    y = np.asarray(vectors, dtype=float)
    return _streamed_second_moment([y], len(y))


def power_mean(vectors, p):
    """The power mean ((1/M) sum |y_i|^p)^(1/p) of the vectors' norms."""
    return _power_mean(_row_norms(np.asarray(vectors, dtype=float)), p)


def report_of(vectors):
    """The concentration report of one batch, passed as a single chunk."""
    y = np.asarray(vectors, dtype=float)
    return concentration_report([y], len(y))


class TestEmpiricalSecondMoment:
    def test_single_vector(self):
        t = second_moment([[math.sqrt(2), 0.0]])
        assert np.allclose(t, np.diag([2.0, 0.0]), atol=1e-15)

    def test_orthonormal_pair(self):
        t = second_moment([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(t, np.diag([0.5, 0.5]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="batch needs at least one vector"):
            _streamed_second_moment([np.empty((0, 3))], 0)

    def test_rejects_non_finite(self):
        for bad in ([[1.0, np.inf]], [[np.nan, 1.0]], [[np.inf, -np.inf]]):
            with pytest.raises(ValueError, match="batch vectors must be finite"):
                second_moment(bad)
        # A finite entry whose square overflows beside an inf: the chunk is named non-finite
        # under any over= setting, the harness's over="raise" included.
        for over in ("raise", "ignore"):
            with np.errstate(over=over), pytest.raises(ValueError, match="batch vectors must be finite"):
                second_moment([[1e308, np.inf]])

    def test_cube_n4_pilot_band(self):
        # Pilot run at this seed gives deviation 0.0214; the acceptance
        # band is 0.15.
        body = isotropic_normalization("cube", 4)
        rng = random_stream(0, 0)
        assert deviation(second_moment(direct_draws(body, 10_000, rng))) <= 0.15


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
        assert deviation(second_moment(support)) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((60, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        d1 = deviation(second_moment(y))
        d2 = deviation(second_moment(y @ q.T))
        assert abs(d1 - d2) <= 1e-9


class TestLogMoment:
    def test_john_norms_give_sqrt_n_for_every_p(self):
        jd = canonical_john("simplex", 4)
        from isotropy.samplers import direct_draws

        pts = direct_draws(jd, 64, random_stream(0, 0))
        for p in (2.0, 3.7, math.log(64), 25.0):
            assert power_mean(pts, p) == pytest.approx(2.0, rel=1e-12)

    def test_single_vector(self):
        assert power_mean([[2.0, 0.0]], 3.0) == pytest.approx(2.0, rel=1e-15)

    def test_two_norms(self):
        assert power_mean([[1.0, 0.0], [3.0, 0.0]], 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_default_exponent_floors_at_two(self):
        y = [[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]]  # M=3, ln M < 2
        assert report_of(y)["log_moment"] == power_mean(y, 2.0)

    def test_zero_vectors_are_handled(self):
        assert power_mean([[0.0, 0.0], [2.0, 0.0]], 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert power_mean([[0.0, 0.0]], 2.0) == 0.0

    def test_no_overflow_for_large_p(self):
        # The small norm's contribution vanishes, leaving 1e150 (1/2)^(1/80).
        y = [[1e150, 0.0], [1e120, 0.0]]
        assert power_mean(y, 80.0) == pytest.approx(1e150 * 0.5 ** (1.0 / 80.0), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone_in_p(self, seed):
        y = np.random.default_rng(seed).standard_normal((32, 4))
        ps = [2.0, 4.0, math.log(32), 9.0]
        vals = [power_mean(y, p) for p in sorted(ps)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi * (1.0 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
    def test_scaling(self, seed, scale):
        y = np.random.default_rng(seed).standard_normal((16, 3))
        a = power_mean(y, 4.0)
        b = power_mean(scale * y, 4.0)
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
        expected = math.sqrt(p / 64) * power_mean(y, p)
        assert rep["rhs_shape"] == pytest.approx(expected, rel=1e-15)
        assert rep["ratio"] == pytest.approx(rep["deviation"] / expected, rel=1e-15)

    def test_one_chunk_is_the_batch_path(self):
        # A sweep or whiten row of at most 4,097 points, and every hit-and-run truncated row, read one chunk.
        for name, n, m in (("cube", 8, 1000), ("ball", 16, 9000), ("simplex", 4, 333)):
            y = direct_draws(isotropic_normalization(name, n), m, random_stream(2, 7))
            rep = report_of(y)
            dev, lm = deviation((y.T @ y) / m), power_mean(y, max(2.0, math.log(m)))
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
        # The zero entries make inf * 0 inside the Gram product; the check still names the chunk.
        y = np.ones((10, 2))
        for value in (math.nan, math.inf, -math.inf):
            bad = np.zeros((10, 2))
            bad[3, 1] = value
            with pytest.raises(ValueError, match="batch vectors must be finite"):
                concentration_report([y, bad], 20)
            with pytest.raises(ValueError, match="batch vectors must be finite"):
                _streamed_second_moment([y, bad], 20)  # the whiten row's fold, without norms

    @pytest.mark.parametrize("bad", [np.ones(3), np.empty((0, 3))], ids=["1-D", "0-row"])
    def test_chunk_needs_a_vector(self, bad):
        y = np.ones((10, 3))
        with pytest.raises(ValueError, match=r"batch needs at least one vector, got shape \("):
            concentration_report([y, bad], 13)

    def test_overflowing_chunk_raises_before_its_norms(self):
        # Under over="raise" the Gram product raises; einsum would give inf norms silently,
        # so the product comes first and no norm of the chunk is written.
        norms = np.full(10, -1.0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _streamed_second_moment([np.full((10, 2), 1e200)], 10, norms)
        assert np.all(norms == -1.0)
        cfg = parse_config("kind=whiten\nn=2\nm=100\ndistortion=1e200,1\nseeds=0\n")
        with pytest.raises(ExperimentError, match="^seed 0: overflow"):
            run_experiment(cfg)


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
    # Whitening by T maps each row y to y T^(-1/2).
    def test_diagonal_example(self):
        out = np.array([2.0, 3.0]) @ inv_sqrt(np.diag([4.0, 1.0]))
        assert np.allclose(out, [1.0, 3.0], atol=1e-12)

    def test_self_whitening_restores_identity(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((500, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
        t2 = second_moment(y @ inv_sqrt(second_moment(y)))
        assert deviation(t2) <= 1e-9

    def test_transform_is_inverse_square_root(self):
        # Whitening the identity's rows gives the matrix of the map itself.
        w = np.eye(2) @ inv_sqrt(np.diag([4.0, 0.25]))
        assert np.allclose(w, np.diag([0.5, 2.0]), atol=1e-14)

    def test_two_stage_distorted_cube(self):
        # Two-stage round trip: whiten fresh samples with a transform
        # estimated from an earlier batch of the same distorted body.
        n, m = 8, 20_000
        body = isotropic_normalization("cube", n)
        distortion = np.array([2.0, 1, 1, 1, 1, 1, 1, 0.5])
        rng = random_stream(0, 33)
        first = direct_draws(body, m, rng) * distortion
        t = second_moment(first)
        fresh = direct_draws(body, m, rng) * distortion
        t2 = second_moment(fresh @ inv_sqrt(t))
        assert deviation(t2) <= 0.1
