import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isotropy.geometry import canonical_john, isotropic_normalization
from isotropy.moments import (
    MomentsError,
    deviation,
    empirical_second_moment,
    epsilon_isotropy_check,
    format_float,
    log_moment,
    concentration_report,
    whiten,
    whitening_transform,
)
from isotropy.samplers import RandomStream, SampleBatch, direct_draws, john_support
from isotropy.symlin import SymMatrix, eigen


def batch_of(vectors, sampler="test", seed=0, stream=0):
    return SampleBatch(vectors=np.asarray(vectors, dtype=float), sampler=sampler, seed=seed, stream=stream)


class TestEmpiricalSecondMoment:
    def test_single_vector(self):
        t = empirical_second_moment(batch_of([[math.sqrt(2), 0.0]]))
        assert np.allclose(t.mat, np.diag([2.0, 0.0]), atol=1e-15)

    def test_orthonormal_pair(self):
        t = empirical_second_moment(batch_of([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(t.mat, np.diag([0.5, 0.5]))

    def test_cube_n4_pilot_band(self):
        # Pilot run at this seed gives deviation 0.0214; the acceptance
        # band is 0.15.
        body = isotropic_normalization("cube", 4)
        rng = RandomStream(seed=0, stream=0)
        batch = batch_of(direct_draws(body, 10_000, rng))
        assert deviation(empirical_second_moment(batch)) <= 0.15


class TestDeviation:
    def test_identity(self):
        assert deviation(SymMatrix.identity(3)) == 0.0

    def test_diagonal(self):
        assert deviation(SymMatrix(np.diag([1.2, 0.7]))) == pytest.approx(0.3, abs=1e-15)

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

        pts = john_draws(jd, 64, RandomStream(seed=0, stream=0))
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
        with pytest.raises(MomentsError):
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
        rep = concentration_report(batch_of(support, sampler="john"))
        assert rep.deviation <= 1e-12 and rep.ratio <= 1e-11
        assert rep.log_moment == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_requires_three_vectors(self):
        with pytest.raises(MomentsError):
            concentration_report(batch_of([[1.0, 0.0], [0.0, 1.0]]))

    def test_pilot_envelope(self):
        body = isotropic_normalization("cube", 8)
        for seed in range(3):
            rng = RandomStream(seed=seed, stream=17)
            rep = concentration_report(batch_of(direct_draws(body, 1024, rng), seed=seed))
            assert 0.0 < rep.ratio <= 4.0
            assert rep.rhs_shape < 1.0  # in the regime where the bound is asserted

    def test_ratio_uniform_across_m(self):
        # The empirical constant moves little between M = 2^10 and 2^14
        # (3-seed means; pilot value 1.14, asserted within factor 2).
        body = isotropic_normalization("cube", 8)
        means = {}
        for m in (2**10, 2**14):
            ratios = []
            for seed in range(3):
                rng = RandomStream(seed=seed, stream=23)
                ratios.append(concentration_report(batch_of(direct_draws(body, m, rng), seed=seed)).ratio)
            means[m] = float(np.mean(ratios))
        assert max(means.values()) / min(means.values()) <= 2.0

    def test_shape_term_formula(self):
        y = np.random.default_rng(5).standard_normal((64, 4))
        rep = concentration_report(batch_of(y))
        p = math.log(64)
        expected = math.sqrt(p / 64) * log_moment(batch_of(y), p)
        assert rep.rhs_shape == pytest.approx(expected, rel=1e-15)
        assert rep.ratio == pytest.approx(rep.deviation / expected, rel=1e-15)

    def test_format_float_17_digits(self):
        x = 1.0 / 3.0
        assert format_float(x) == "0.33333333333333331"
        assert float(format_float(x)) == x


class TestEpsilonIsotropy:
    def test_identity_passes(self):
        assert epsilon_isotropy_check(SymMatrix.identity(4), 0.01)

    def test_out_of_band_eigenvalue_fails(self):
        assert not epsilon_isotropy_check(SymMatrix(np.diag([1.2, 0.9])), 0.1)

    def test_eps_bounds(self):
        with pytest.raises(MomentsError):
            epsilon_isotropy_check(SymMatrix.identity(2), 1.5)

    def test_matches_quadratic_form_sandwich(self):
        # The extremes of x^T T x / |x|^2 are attained at eigenvectors, so
        # checking random directions plus the eigenvector directions must
        # agree with the eigenvalue-interval test.
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n))
            t = SymMatrix.from_dense(0.05 * (g + g.T) / 2.0 + np.eye(n), asym_tol=1e-8)
            eps = float(rng.uniform(0.02, 0.3))
            dirs = rng.standard_normal((1000, n))
            dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True), eigen(t).eigenvectors.T])
            quad = np.einsum("ij,jk,ik->i", dirs, t.mat, dirs) / np.einsum("ij,ij->i", dirs, dirs)
            sandwiched = bool(np.all(quad >= 1 - eps - 1e-12) and np.all(quad <= 1 + eps + 1e-12))
            assert sandwiched == epsilon_isotropy_check(t, eps)


class TestWhiten:
    def test_diagonal_example(self):
        out = whiten(SymMatrix(np.diag([4.0, 1.0])), np.array([2.0, 3.0]))
        assert np.allclose(out, [1.0, 3.0], atol=1e-12)

    def test_self_whitening_restores_identity(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((500, 6)) @ np.diag([3.0, 2.0, 1.5, 1.0, 0.5, 0.25])
        t = empirical_second_moment(batch_of(y))
        white = whiten(t, y)
        t2 = empirical_second_moment(batch_of(white))
        assert deviation(t2) <= 1e-9

    def test_transform_is_inverse_square_root(self):
        t = SymMatrix(np.diag([4.0, 0.25]))
        w = whitening_transform(t)
        assert np.allclose(w.mat, np.diag([0.5, 2.0]), atol=1e-14)

    def test_two_stage_distorted_cube(self):
        # Two-stage round trip: whiten fresh samples with a transform
        # estimated from an earlier batch of the same distorted body.
        n, m = 8, 20_000
        body = isotropic_normalization("cube", n)
        distortion = np.array([2.0, 1, 1, 1, 1, 1, 1, 0.5])
        rng = RandomStream(seed=0, stream=33)
        first = direct_draws(body, m, rng) * distortion
        t = empirical_second_moment(batch_of(first))
        fresh = direct_draws(body, m, rng) * distortion
        t2 = empirical_second_moment(batch_of(whiten(t, fresh)))
        assert epsilon_isotropy_check(t2, 0.1)
