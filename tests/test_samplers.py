import collections
import copy
import hashlib
import math
import warnings

import numpy as np
import pytest

from isotropy import samplers
from isotropy.bernoulli import _signs
from isotropy.geometry import Ball, Cube, HPolytope, Truncated, canonical_john, isotropic_normalization
from isotropy.harness import _ball_radial_cdf, _trace_law
from isotropy.samplers import (
    TruncatedSampler,
    direct_draws,
    john_draws,
    john_support,
    random_stream,
    sample_hit_and_run,
)


def drawn(sampler, m):
    """A truncated draw's stream of row chunks as one (m, n) array."""
    return np.concatenate(list(sampler.draw(m)))


class TestRandomStream:
    def test_reproducible(self):
        a = random_stream(7, 3).random(32)
        b = random_stream(7, 3).random(32)
        assert np.array_equal(a, b)

    def test_streams_do_not_share_a_prefix(self):
        a = random_stream(7, 0).random(32)
        b = random_stream(7, 1).random(32)
        assert not np.any(a[:8] == b[:8])

    def test_keying_is_one_to_one_on_64_bit_pairs(self):
        # An entropy tuple (seed, stream) is flattened into variable-length 32-bit words, so
        # these two pairs would share a stream; the spawn key pads the seed to a fixed width.
        a = random_stream(2**32 + 5, 3).random(8)
        b = random_stream(5, 1 + 3 * 2**32).random(8)
        assert not np.any(a == b)
        # The seed is still reduced modulo 2**64.
        assert np.array_equal(random_stream(-1, 0).random(8), random_stream(2**64 - 1, 0).random(8))

    def test_streams_are_plain_sfc64_generators(self):
        rng = random_stream(1, 2)
        assert type(rng) is np.random.Generator
        assert isinstance(rng.bit_generator, np.random.SFC64)

    def test_signs_are_plus_minus_one(self):
        s = _signs(random_stream(1, 0), 1000)
        assert set(np.unique(s)) == {-1.0, 1.0}

    def test_recorded_sign_bytes(self):
        # Pins the sign draw and the stream state it leaves behind.
        rng = random_stream(3, 5)
        signs = _signs(rng, (400, 4096))
        assert hashlib.sha256(signs.tobytes()).hexdigest() == (
            "cf82fcd63d929c1308f789c891422864a65eef347f5917f07d1e33ff01fe9708"
        )
        assert hashlib.sha256(rng.random(8).tobytes()).hexdigest() == (
            "25e6ac7710ea92f36c536f83ab962e611a7dac5086efd8d3e2fc6a5e07957594"
        )


# Direct draws of one body in n = 16 (argv: variant, rows; 0 rows draws nothing).
DIRECT_RUN = """
import sys
from isotropy.geometry import isotropic_normalization
from isotropy.samplers import direct_draws, random_stream
body = isotropic_normalization(sys.argv[1], 16)
if int(sys.argv[2]):
    direct_draws(body, int(sys.argv[2]), random_stream(0, 0))
"""


class TestRowNorms:
    @pytest.mark.parametrize("scale", [1e-100, 1e-10, 1.0, 1e10, 1e100])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 33])
    def test_agrees_with_linalg_norm(self, n, scale):
        v = scale * np.random.default_rng(n).standard_normal((500, n))
        assert samplers._row_norms(v) == pytest.approx(np.linalg.norm(v, axis=1), rel=1e-15, abs=0)

    def test_writes_into_out(self):
        v = np.random.default_rng(1).standard_normal((100, 8))
        buf = np.full(120, -1.0)
        got = samplers._row_norms(v, out=buf[10:110])
        assert np.shares_memory(got, buf) and np.array_equal(buf[10:110], got)
        assert np.all(buf[:10] == -1.0) and np.all(buf[110:] == -1.0)
        assert got == pytest.approx(np.linalg.norm(v, axis=1), rel=1e-15, abs=0)

    def test_forms_no_batch_sized_temporary(self, traced_peak_mb):
        # 306,781 rows in n = 16 are 39 MB; the (m,) result is 2.3 MB.
        v = np.ones((306_781, 16))
        assert traced_peak_mb(lambda: samplers._row_norms(v)) < 4
        out = np.empty(len(v))
        assert traced_peak_mb(lambda: samplers._row_norms(v, out=out)) < 1


class TestDirectSamplers:
    def test_cube_support(self):
        body = Cube(halfwidth=math.sqrt(3), n=2)
        pts = direct_draws(body, 500, random_stream(0, 0))
        assert np.abs(pts).max() <= math.sqrt(3)

    def test_ball_support(self):
        pts = direct_draws(Ball(radius=1.0, n=3), 500, random_stream(1, 0))
        assert np.linalg.norm(pts, axis=1).max() <= 1.0

    def test_simplex_support(self):
        body = isotropic_normalization("simplex", 3)
        pts = direct_draws(body, 500, random_stream(2, 0))
        assert all(body.membership(p) for p in pts)

    def test_cube_marginal_second_moment(self):
        # var(t^2) = 4/5 for t uniform on [-sqrt(3), sqrt(3)], so the
        # empirical per-coordinate second moment at M = 1e5 has a 3-sigma
        # band of 3 sqrt(0.8 / M) around 1.
        m = 100_000
        pts = direct_draws(isotropic_normalization("cube", 4), m, random_stream(4, 0))
        second = (pts**2).mean(axis=0)
        band = 3.0 * math.sqrt(0.8 / m)
        assert np.abs(second - 1.0).max() <= band

    def test_ball_radial_cdf(self):
        n, m = 3, 50_000
        body = isotropic_normalization("ball", n)
        assert _ball_radial_cdf(direct_draws(body, m, random_stream(5, 0)), body.radius) <= 3.0

    @pytest.mark.parametrize("a", [math.sqrt(3.0), 0.7, 1e3])
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (32769, 16)])
    def test_cube_draws_equal_generator_uniform(self, a, m, n):
        # The in-place cube draw repeats Generator.uniform's low + (high - low) * U.  The
        # reference generator is built here, so the test also pins how (seed, stream) is keyed.
        seq = np.random.SeedSequence(11, spawn_key=(5,))
        expect = np.random.Generator(np.random.SFC64(seq)).uniform(-a, a, (m, n))
        got = direct_draws(Cube(halfwidth=a, n=n), m, random_stream(11, 5))
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (32769, 16)])
    def test_ball_draws_equal_scaled_unit_points(self, m, n):
        # Each chunk of _chunk_sizes(m) rows draws its normals, then its radii.
        def unit_points(rng, rows):
            g = rng.standard_normal((rows, n))
            u = rng.random(rows)
            norms = np.sqrt(np.einsum("ij,ij->i", g, g))
            norms[norms == 0.0] = 1.0
            return g * (u ** (1.0 / n) / norms)[:, None]

        ball, rng = Ball(radius=2.5, n=n), random_stream(11, 5)
        expect = ball.radius * np.concatenate([unit_points(rng, rows) for rows in samplers._chunk_sizes(m)])
        assert direct_draws(ball, m, random_stream(11, 5)).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("m", [1, 4097, 65_536, 306_781])
    def test_simplex_draws_equal_whole_product(self, m, n):
        # The product with the vertices is formed by row chunk into one output
        # array; it must equal the whole (m, n + 1) @ (n + 1, n) product.
        simplex = isotropic_normalization("simplex", n)
        e = random_stream(11, 5).standard_exponential((m, n + 1))
        e /= np.einsum("ij->i", e)[:, None]
        assert np.array_equal(direct_draws(simplex, m, random_stream(11, 5)), e @ simplex.vertices)

    def test_ball_and_simplex_draws_hold_one_batch(self, child_peak_rss_mb):
        # 306,781 rows in n = 16 are 39 MB.  A whole-array row norm (ball) or the
        # exponentials next to their product (simplex) used to double the rise.
        base = child_peak_rss_mb(DIRECT_RUN, "cube", "0")
        rise = {name: child_peak_rss_mb(DIRECT_RUN, name, "306781") - base for name in ("cube", "ball", "simplex")}
        assert rise["ball"] <= 1.3 * rise["cube"] and rise["simplex"] <= 1.3 * rise["cube"], rise

    def test_bit_reproducible(self):
        body = isotropic_normalization("cube", 5)
        rng1, rng2 = random_stream(3, 9), random_stream(3, 9)
        assert np.array_equal(direct_draws(body, 100, rng1), direct_draws(body, 100, rng2))

    def test_unsupported_variant(self):
        poly = HPolytope(rows=np.array([[1.0], [-1.0]]), offsets=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="no direct sampler for body HPolytope"):
            direct_draws(poly, 1, random_stream(0, 0))

    @pytest.mark.parametrize("variant,n", [("cube", 4), ("ball", 6), ("simplex", 3)])
    def test_trace_law(self, variant, n):
        m = 50_000
        body = isotropic_normalization(variant, n)
        _, z = _trace_law(direct_draws(body, m, random_stream(6, n)))
        assert abs(z) <= 3.0


ROT30 = np.array([[math.cos(math.pi / 6), -math.sin(math.pi / 6)], [math.sin(math.pi / 6), math.cos(math.pi / 6)]])


class TestHitAndRun:
    def test_emitted_states_are_members(self):
        body = Ball(radius=1.0, n=2)
        pts = sample_hit_and_run(body, np.zeros(2), burn_in=10, thin=1, rng=random_stream(0, 0), count=200)
        assert all(body.membership(p) for p in pts)

    def test_rotated_cube_mean(self):
        # 30-degree rotated cube as an H-polytope; target mean is 0 by symmetry.
        body = HPolytope(rows=np.vstack([ROT30.T, -ROT30.T]), offsets=np.ones(4))
        pts = sample_hit_and_run(body, np.zeros(2), burn_in=1000, thin=5, rng=random_stream(0, 1), count=10_000)
        assert all(body.membership(p) for p in pts)
        mean = pts.mean(axis=0)
        se = pts.std(axis=0, ddof=1) / math.sqrt(pts.shape[0])
        assert np.all(np.abs(mean) <= 3.0 * se)

    def test_single_step_from_center(self):
        body = Cube(halfwidth=1.0, n=2)
        pts = sample_hit_and_run(body, np.zeros(2), burn_in=0, thin=1, rng=random_stream(2, 0), count=1)
        assert pts.shape == (1, 2) and body.membership(pts[0])

    def test_start_outside_rejected(self):
        with pytest.raises(ValueError, match="start point lies outside the body"):
            sample_hit_and_run(Ball(radius=1.0, n=2), np.array([5.0, 0.0]), 0, 1, random_stream(0, 0))

    def test_start_point_is_not_modified(self):
        x0 = np.array([0.25, -0.5])
        sample_hit_and_run(Cube(halfwidth=1.0, n=2), x0, burn_in=5, thin=2, rng=random_stream(2, 0), count=3)
        assert x0.tolist() == [0.25, -0.5]

    @pytest.mark.parametrize(
        "make_body, digest",
        [
            (
                lambda: Truncated(isotropic_normalization("cube", 16), 2.0),
                "7ae4f87af9549b3338d43e4775ce6f0d1a72f837103314f7397740c3390338eb",
            ),
            (
                lambda: Truncated(isotropic_normalization("simplex", 8), 0.25 * math.sqrt(8)),
                "8c803bd1314ce926f2fbe491fda2d5625db5eb7a10aba830cb47641d6634efae",
            ),
            (
                lambda: isotropic_normalization("cube", 16),
                "f746b4c50946f07f0924cff5d455647c121de3feb1eb16834b7cb47ce3e74a89",
            ),
            (
                lambda: HPolytope(rows=np.vstack([ROT30.T, -ROT30.T]), offsets=np.ones(4)),
                "6545e18373a171da310f25b2edd4d0f41ea64de92684fe97c75aff36abe1cdc8",
            ),
        ],
        ids=["truncated-cube16", "truncated-simplex8", "cube16", "rotated-square"],
    )
    def test_recorded_chain_hashes(self, make_body, digest):
        # The states of 64 lockstep chains are pinned bit for bit, under the block read order
        # of sample_hit_and_run (a block's (b, 64, n) normals, then its uniforms): a faster
        # step must repeat the same floating-point operations, not approximate them.
        body = make_body()
        rng = random_stream(5, 17)
        states = sample_hit_and_run(body, np.zeros(body.n), burn_in=800, thin=32, rng=rng, count=300)
        assert hashlib.sha256(states.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "make_body",
        [
            lambda: Cube(halfwidth=1.0, n=3),
            lambda: Ball(radius=2.0, n=3),
            lambda: Truncated(isotropic_normalization("simplex", 3), 1.0),
            lambda: HPolytope(rows=np.vstack([ROT30.T, -ROT30.T]), offsets=np.ones(4)),
        ],
        ids=["cube3", "ball3", "truncated-simplex3", "rotated-square"],
    )
    @pytest.mark.parametrize(
        "burn_in, thin, count",
        # The ids count burn_in + thin * count, one scalar chain's steps.  With 64 chains a
        # block holds 16 steps: 100 + 7 * 5 = 135 steps end 7 into a ninth block, and the 4
        # rounds trim to 300 rows; 1 + 16 * 2 = 33 steps leave one step for a third block.
        [(100, 7, 300), (1, 16, 128)],
        ids=["2200-steps", "2049-steps"],
    )
    def test_chain_replays_its_block_read_order(self, make_body, burn_in, thin, count):
        body = make_body()
        states = sample_hit_and_run(body, np.zeros(body.n), burn_in, thin, random_stream(6, 2), count)
        want = replay_hit_and_run(body, np.zeros(body.n), burn_in, thin, random_stream(6, 2), count)
        assert states.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 3, 40, 200])
    def test_chains_cycle_their_start_rows(self, count):
        # Fewer chains than start rows, more, and a chain count (40) that does not divide the
        # block's 1,024 rows: 25 steps a block.
        body = Truncated(isotropic_normalization("simplex", 3), 1.0)
        x0 = direct_draws(Ball(radius=0.5, n=3), 3, random_stream(6, 3))
        states = sample_hit_and_run(body, x0, 30, 3, random_stream(6, 2), count)
        assert states.shape == (count, 3)
        assert states.tobytes() == replay_hit_and_run(body, x0, 30, 3, random_stream(6, 2), count).tobytes()

    def test_chains_agree_with_exact_rejection_draws(self):
        # At cube16, R = 0.9 about 21% of direct draws fall within the radius, so rejection
        # gives exact draws of the truncated body to test the chains against.  64 chains
        # from the pilot's first 64 hits run 20 rounds of 2n = 32 steps; their per-chain
        # means of |x|^2 are independent, and they must agree with the mean over 20,000
        # exact draws within 4 standard errors.  A chain that skips the ball's chord walks
        # the whole cube, where E|x|^2 = 16, against 11.1 here.
        sampler = TruncatedSampler(isotropic_normalization("cube", 16), 0.9, random_stream(0, 12))
        assert sampler.mode == "rejection" and len(sampler._starts) == 64
        exact = drawn(sampler, 20_000)
        exact_sq = np.einsum("ij,ij->i", exact, exact)
        states = sample_hit_and_run(sampler.truncated, sampler._starts, 0, 32, random_stream(0, 13), count=64 * 20)
        chain_means = np.einsum("ij,ij->i", states, states).reshape(20, 64).mean(axis=0)
        se = math.hypot(chain_means.std(ddof=1) / math.sqrt(64), exact_sq.std(ddof=1) / math.sqrt(len(exact_sq)))
        assert abs(chain_means.mean() - exact_sq.mean()) <= 4.0 * se, (chain_means.mean(), exact_sq.mean(), se)

    def test_zero_direction_rows_are_redrawn(self):
        # Ten chains take three steps in one block.  Rows 3 and 5 of the block (chains 3 and
        # 5 of its first step) are exactly zero, and so is the first redraw of row 3: it
        # takes two redraws, row 5 one, all after the block's uniforms.
        body = Cube(halfwidth=1.0, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rng = ZeroRowStream()
            states = sample_hit_and_run(body, np.zeros(3), 0, 3, rng, count=10)
        assert rng.calls == [("normal", (3, 10, 3)), ("random", (3, 10)), ("normal", 3), ("normal", 3), ("normal", 3)]
        want = replay_hit_and_run(body, np.zeros(3), 0, 3, ZeroRowStream(), 10)
        assert states.tobytes() == want.tobytes()
        assert all(body.membership(p) for p in states)


def replay_hit_and_run(body, x0, burn_in, thin, rng, count):
    """sample_hit_and_run written plainly: K = min(64, count) chains, chain k from row k mod h
    of the h start rows.  Per block of at most 1,024 direction rows (1,024 // K steps): the
    block's (b, K, n) normals, its (b, K) uniforms, a redraw of each zero row in row order,
    np.linalg.norm, and one scalar chord call per chain per step.  The K states of each
    emitted round follow each other, trimmed to count rows."""
    starts = np.array(x0, dtype=float).reshape(-1, body.n)
    chains = min(64, count)
    xs = [starts[k % len(starts)] for k in range(chains)]
    states = []
    total = burn_in + thin * -(-count // chains)
    for start in range(0, total, 1024 // chains):
        b = min(1024 // chains, total - start)
        g = rng.standard_normal((b, chains, body.n))
        u = rng.random((b, chains))
        for j, k in np.ndindex(b, chains):
            while np.linalg.norm(g[j, k]) == 0.0:
                g[j, k] = rng.standard_normal(body.n)
        d = g / np.linalg.norm(g, axis=2, keepdims=True)
        for j in range(b):
            for k in range(chains):
                lo, hi = body.chord(xs[k], d[j, k])
                xs[k] = xs[k] + (lo + (hi - lo) * u[j, k]) * d[j, k]
            step = start + j - burn_in
            if step >= 0 and step % thin == thin - 1:
                states.extend(xs)
    return np.array(states[:count])


class ZeroRowStream:
    """A random stream whose first normal block has zero rows 3 and 5 (in row order) and whose
    first one-row draw is zero; it records each call."""

    def __init__(self):
        self.rng = random_stream(4, 0)
        self.calls = []

    def standard_normal(self, size):
        self.calls.append(("normal", size))
        g = self.rng.standard_normal(size)
        if len(self.calls) == 1:
            g.reshape(-1, g.shape[-1])[[3, 5]] = 0.0
        elif len(self.calls) == 3:
            g[:] = 0.0
        return g

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)


class TestTruncatedSampling:
    def test_vacuous_truncation_uses_rejection(self):
        # Ball radius R sqrt(n) = 4 contains the whole cube (diameter
        # radius sqrt(12) < 4), so nothing is ever rejected and the output
        # is distributed exactly like the direct sampler.
        body = isotropic_normalization("cube", 4)
        sampler = TruncatedSampler(body, 2.0, random_stream(7, 0))
        assert sampler.acceptance == 1.0 and sampler.mode == "rejection"
        pts = drawn(sampler, 50_000)
        sq = np.einsum("ij,ij->i", pts, pts)
        se = sq.std(ddof=1) / math.sqrt(pts.shape[0])
        assert abs(sq.mean() - 4.0) <= 3.0 * se

    def test_ball_truncation_support(self):
        body = isotropic_normalization("ball", 10)
        pts = drawn(TruncatedSampler(body, 1.0, random_stream(8, 0)), 2000)
        assert np.linalg.norm(pts, axis=1).max() <= math.sqrt(10.0) + 1e-12

    def test_thin_intersection_switches_to_hit_and_run(self):
        body = isotropic_normalization("cube", 2)
        sampler = TruncatedSampler(body, 0.0138, random_stream(3, 0))
        assert sampler.mode == "hit-and-run"
        assert 1e-6 <= sampler.acceptance < 1e-3
        pts = drawn(sampler, 40)
        assert all(sampler.truncated.membership(p) for p in pts)

    def test_chain_starts_at_the_first_pilot_hit(self, monkeypatch):
        calls = []

        def spy(body, x0, burn_in, thin, rng, count=1):
            calls.append((body, np.array(x0), burn_in, thin, copy.deepcopy(rng), count))
            return sample_hit_and_run(body, x0, burn_in, thin, rng, count)

        monkeypatch.setattr(samplers, "sample_hit_and_run", spy)
        body = isotropic_normalization("cube", 2)
        sampler = TruncatedSampler(body, 0.0138, random_stream(3, 0))
        assert sampler.mode == "hit-and-run"
        pts = drawn(sampler, 100)
        [(chain_body, x0, burn_in, thin, rng, count)] = calls
        assert chain_body is sampler.truncated and sampler.truncated.membership(x0).all()
        assert burn_in == 0 and thin == 2 * body.n and count == 100
        # Cube pilot rows read the stream in sequence: the starts are the first in-radius
        # rows of one long draw from a fresh stream, in order, all of them (fewer than 64).
        stream = direct_draws(body, 4096 + 32768 + 262144, random_stream(3, 0))
        hits = np.flatnonzero(np.einsum("ij,ij->i", stream, stream) <= sampler.rho**2)
        assert 3 <= len(x0) < 64 and np.array_equal(x0, stream[hits[: len(x0)]])
        # The 64 chains cycle through them: chain k starts at row k mod len(x0).
        assert pts.tobytes() == replay_hit_and_run(chain_body, x0, 0, thin, rng, 100).tobytes()

    def test_hit_and_run_samples_the_exact_ball_law(self):
        # At cube12, R = 0.45 the cut radius rho = R sqrt(12) = 1.559 is below the
        # cube's halfwidth sqrt(3), so the truncated body is exactly the ball of
        # radius rho, where E|x|^2 / rho^2 = n / (n + 2).  Its acceptance is about
        # 8e-5, so the chain samples it.  A chain on the ball of radius 1.05 rho (sphere
        # chord and ball containment both scaled) moves the mean by 27 standard errors.
        n = 12
        sampler = TruncatedSampler(isotropic_normalization("cube", n), 0.45, random_stream(0, 0))
        assert sampler.mode == "hit-and-run" and sampler.rho < math.sqrt(3.0)
        pts = drawn(sampler, 2000)
        r2 = np.einsum("ij,ij->i", pts, pts) / sampler.rho**2
        batch_means = r2.reshape(20, 100).mean(axis=1)
        se = batch_means.std(ddof=1) / math.sqrt(20)
        assert abs(r2.mean() - n / (n + 2)) <= 3.0 * se

    def test_too_aggressive_truncation(self):
        body = isotropic_normalization("cube", 2)
        with pytest.raises(ValueError, match="truncation too aggressive"):
            TruncatedSampler(body, 1e-4, random_stream(3, 0))

    def test_single_sample_helper(self):
        body = isotropic_normalization("cube", 3)
        x = drawn(TruncatedSampler(body, 1.0, random_stream(9, 0)), 1)[0]
        assert np.linalg.norm(x) <= math.sqrt(3.0) and body.membership(x)

    def test_truncated_cube_spectral_band(self):
        # Cutting the n=16 cube at radius sqrt(n) removes about half its
        # mass, and a 40M-sample pilot puts the truncated per-coordinate
        # second moment at 0.8248.  The empirical spectrum at M = 1e5 must
        # sit in a band around that value, not around 1.
        from isotropy.moments import _streamed_second_moment

        body = isotropic_normalization("cube", 16)
        sampler = TruncatedSampler(body, 1.0, random_stream(0, 11))
        vals = np.linalg.eigvalsh(_streamed_second_moment(sampler.draw(100_000), 100_000))
        assert 0.78 <= vals.min() and vals.max() <= 0.87


# The pilot's stage ends: 4,096 rows doubled nine times, then the 3,000,000 cap.
PILOT_ENDS = [4096 * 2**k for k in range(10)] + [3_000_000]


def _replayed_pilot(body, rho, rng, settled=True):
    """Reference: (hits, draws, first 64 hits) where a plain replay of the pilot stops.

    It reads the stream in the sampler's chunks, at most 4,096 rows ending on each
    stage end (ball chunks draw their normals before their radii per chunk), applies its
    own radius test, and checks the stop rule at every end.  With ``settled`` that is the
    sampler's rule: 50 or more hits with hits - 3 sqrt(hits) > 1e-3 draws, or 3 or more
    hits with hits + 3 sqrt(hits) < 1e-3 draws; without it, 50 hits alone.
    """
    draws = hits = 0
    first = np.empty((0, body.n))
    for end in PILOT_ENDS:
        while draws < end:
            pts = direct_draws(body, min(4096, end - draws), rng)
            inside = (pts * pts).sum(axis=1) <= rho * rho
            first = np.vstack([first, pts[inside]])[:64]
            hits += int(inside.sum())
            draws += len(pts)
        if not settled and hits >= 50:
            break
        if settled and hits >= 50 and hits - 3 * math.sqrt(hits) > 1e-3 * draws:
            break
        if settled and hits >= 3 and hits + 3 * math.sqrt(hits) < 1e-3 * draws:
            break
    return hits, draws, first


class TestPilotStoppingRule:
    # The pilot stops once its hits settle the mode at 3 sigma, on either side of 1e-3.

    def test_stage_ends_double_up_to_the_cap(self):
        assert list(samplers._PILOT_STAGE_ENDS) == PILOT_ENDS

    @pytest.mark.parametrize(
        "name, n, r, seed",
        [
            ("cube", 16, 0.5, 1),  # the benchmark's thin cuts: the rule holds after a few hits
            ("cube", 16, 0.5, 5),
            ("simplex", 8, 0.25, 1),
            ("simplex", 8, 0.25, 6),
            ("cube", 16, 1.0, 1),  # acceptance 0.5: 50 hits in the first 4,096 rows
            ("cube", 2, 0.0437, 0),  # about 1e-3: no stage end settles the mode, so the cap
            ("ball", 2, 0.045, 2),  # the same in the ball's chunks of normals, then radii
            ("cube", 2, 0.0498, 0),  # 1.3e-3: settled for rejection at 131,072 rows, 50 hits at 65,536
        ],
    )
    def test_stops_at_the_first_end_where_its_rule_holds(self, monkeypatch, name, n, r, seed):
        body = isotropic_normalization(name, n)
        replay = random_stream(seed, 2)
        hits, draws, first = _replayed_pilot(body, r * math.sqrt(n), replay)
        drawn = []

        def counting(body, m, rng):
            drawn.append(m)
            return direct_draws(body, m, rng)

        monkeypatch.setattr(samplers, "direct_draws", counting)
        rng = random_stream(seed, 2)
        sampler = TruncatedSampler(body, r, rng)
        assert sampler.acceptance == hits / draws and sum(drawn) == draws, (hits, draws, sum(drawn))
        assert all(rows <= 4096 for rows in drawn) and np.array_equal(sampler._starts, first)
        # The pilot read the stream exactly that far: the next uniform is the replay's.
        assert rng.random() == replay.random()

    def test_early_stop_keeps_the_decisions(self, monkeypatch):
        # In the plane a small cut's disc lies inside each body, so its acceptance is
        # c R^2: c = pi/6 (cube), 1/2 (ball) and pi/(3 sqrt 3) (simplex).  The cuts sit
        # 4x and 2x above, at, 2x and 4x below the 1e-3 threshold and at the 1e-6 hard
        # floor; away from the threshold each mode is the one the 50-hit reference picks.
        # A pilot stops before that reference only for hit-and-run, and reads on past it
        # when 50 hits leave the mode unsettled.
        verdicts, early, later = set(), 0, 0
        drawn = []

        def counting(body, m, rng):
            drawn.append(m)
            return direct_draws(body, m, rng)

        for name, c in (("cube", math.pi / 6), ("ball", 0.5), ("simplex", math.pi / (3 * math.sqrt(3)))):
            body = isotropic_normalization(name, 2)
            for target in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4, 1e-6):
                r = math.sqrt(target / c)
                for seed in range(4):
                    case = (name, target, seed)
                    hits, draws, first = _replayed_pilot(body, r * math.sqrt(2), random_stream(seed, 3), settled=False)
                    acceptance = hits / draws
                    drawn.clear()
                    try:
                        with monkeypatch.context() as patch:
                            patch.setattr(samplers, "direct_draws", counting)
                            sampler = TruncatedSampler(body, r, random_stream(seed, 3))
                    except ValueError as exc:
                        assert "truncation too aggressive" in str(exc), case
                        assert acceptance < samplers.ACCEPTANCE_HARD_FLOOR, case
                        verdicts.add("raise")
                        continue
                    assert acceptance >= samplers.ACCEPTANCE_HARD_FLOOR, case
                    verdicts.add("sample")
                    # Both hold the first in-radius rows of one stream, as far as each read it.
                    own_draws = sum(drawn)
                    starts = sampler._starts
                    assert len(starts) == min(round(sampler.acceptance * own_draws), 64), case
                    assert np.array_equal(starts[: len(first)], first[: len(starts)]), case
                    if target != 1e-3:
                        mode = "rejection" if acceptance >= samplers.REJECTION_MIN_ACCEPTANCE else "hit-and-run"
                        assert sampler.mode == mode, case
                    if own_draws < draws:
                        assert sampler.mode == "hit-and-run", case
                        early += 1
                    later += own_draws > draws
        assert verdicts == {"raise", "sample"} and early > 0 and later > 0

    @pytest.mark.parametrize("name, n, r", [("cube", 16, 0.5), ("simplex", 8, 0.25)])
    def test_benchmark_cuts_stop_before_the_largest_stage(self, monkeypatch, name, n, r):
        drawn = []

        def counting(body, m, rng):
            drawn.append(m)
            return direct_draws(body, m, rng)

        monkeypatch.setattr(samplers, "direct_draws", counting)
        sampler = TruncatedSampler(isotropic_normalization(name, n), r, random_stream(1, 2))
        # At this seed the rule first holds after 131,072 rows for both cuts; the old x8 grid
        # stopped them at 299,008.
        assert sampler.mode == "hit-and-run" and sum(drawn) <= 131_072, sum(drawn)


# A floor cut: no hit in 3,000,000 pilot rows, so the pilot runs every stage and raises.
PILOT_RUN = """
from isotropy.geometry import isotropic_normalization
from isotropy.samplers import TruncatedSampler, random_stream
try:
    TruncatedSampler(isotropic_normalization("simplex", 8), 0.1, random_stream(1, 2))
except ValueError as exc:
    if "truncation too aggressive" not in str(exc):
        raise
else:
    raise SystemExit("the floor cut did not raise its truncation error")
"""


# One seed of configs/truncated.cfg, the benchmark's truncated rejection cut, through the
# harness; its import alone is the memory baseline.
HARNESS_IMPORT = "from isotropy.harness import parse_config, run_experiment\n"
TRUNCATED_SEED_RUN = HARNESS_IMPORT + """
run_experiment(parse_config("kind=truncated\\nsampler=cube\\nn=16\\nr=1\\neps=0.2\\nc0=128\\nseeds=0\\n"))
"""


class TestTruncatedChunks:
    # Pilot and rejection draws stream in chunks of samplers._CHUNK_ROWS rows.
    # Direct rows read the SFC64 stream in sequence, so the chunk size
    # changes no estimate, no output byte and no later draw.

    @pytest.mark.parametrize(
        "name, n, r, acceptance",
        [
            ("cube", 16, 0.5, 4.57763671875e-05),
            ("simplex", 8, 0.25, 6.866455078125e-05),
            ("cube", 16, 1.0, 0.511474609375),
        ],
        ids=["cube-16-0.5", "simplex-8-0.25", "cube-16-1.0"],
    )
    def test_recorded_pilot_acceptance(self, name, n, r, acceptance):
        assert TruncatedSampler(isotropic_normalization(name, n), r, random_stream(1, 2)).acceptance == acceptance

    def test_chunk_size_changes_no_byte(self, monkeypatch):
        cube, simplex = isotropic_normalization("cube", 16), isotropic_normalization("simplex", 8)

        def run(rows):
            monkeypatch.setattr(samplers, "_CHUNK_ROWS", rows)
            pts = drawn(TruncatedSampler(cube, 1.0, random_stream(1, 2)), 50_000)
            rng = random_stream(1, 2)
            acceptance = TruncatedSampler(simplex, 0.25, rng).acceptance
            return pts, acceptance, rng.random(8)

        default = samplers._CHUNK_ROWS
        small_pts, small_acceptance, small_after = run(1000)
        pts, acceptance, after = run(default)
        assert np.array_equal(small_pts, pts)
        assert small_acceptance == acceptance and np.array_equal(small_after, after)
        # With 2**17-row chunks the pilot's 4,096 rows and the rejection draw's about 98k rows
        # are each drawn whole.
        monkeypatch.setattr(samplers, "_CHUNK_ROWS", 1 << 17)
        assert np.array_equal(drawn(TruncatedSampler(cube, 1.0, random_stream(1, 2)), 50_000), pts)

    @pytest.mark.parametrize("name, n", [("cube", 16), ("ball", 8), ("simplex", 8)])
    def test_rejection_draw_is_the_next_in_radius_rows(self, name, n):
        # Direct rows read the stream in sequence, so the rejection draw is the first
        # m in-radius rows after the pilot's 4,096 in one long draw from a fresh stream.
        body, m = isotropic_normalization(name, n), 5000
        sampler = TruncatedSampler(body, 1.0, random_stream(1, 2))
        assert sampler.mode == "rejection"
        pts = direct_draws(body, 4096 + 4 * 4096, random_stream(1, 2))[4096:]
        inside = np.flatnonzero(np.einsum("ij,ij->i", pts, pts) <= sampler.rho**2)
        assert np.array_equal(drawn(sampler, m), pts[inside[:m]])

    @pytest.mark.parametrize("name, n", [("cube", 16), ("ball", 8), ("simplex", 8)])
    def test_hits_are_the_masked_rows_of_the_chunk(self, name, n):
        # With no row, some rows and every row within the radius, _hits returns one C-contiguous
        # float64 (k, n) array equal to pts[mask] of the same chunk drawn from a cloned stream.
        sampler = TruncatedSampler(isotropic_normalization(name, n), 1.0, random_stream(1, 2))
        rows = 1000
        for rho, kept in ((0.0, [0]), (sampler.rho, range(1, rows)), (1e3, [rows])):
            sampler.rho = rho
            clone = copy.deepcopy(sampler.rng)
            got = sampler._hits(rows)
            pts = direct_draws(sampler.body, rows, clone)
            want = pts[np.einsum("ij,ij->i", pts, pts) <= rho * rho]
            assert len(want) in kept, (rho, len(want))
            assert got.dtype == np.float64 and got.flags.c_contiguous and got.shape == (len(want), n)
            assert np.array_equal(got, want)
            assert np.array_equal(clone.random(4), sampler.rng.random(4))

    def test_stream_chunks(self):
        body = isotropic_normalization("cube", 16)
        chunks = list(TruncatedSampler(body, 1.0, random_stream(1, 2)).draw(5000))
        assert len(chunks) > 1 and all(1 <= len(c) <= samplers._CHUNK_ROWS for c in chunks)
        assert sum(len(c) for c in chunks) == 5000
        [chain] = list(TruncatedSampler(isotropic_normalization("cube", 2), 0.0138, random_stream(3, 0)).draw(40))
        assert chain.shape == (40, 2)

    def test_batch_size_is_checked_at_the_call(self):
        sampler = TruncatedSampler(isotropic_normalization("cube", 3), 1.0, random_stream(9, 0))
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            sampler.draw(0)

    def test_recorded_ball_draw(self):
        # Pins the points of a truncated ball draw, and with them the order in which each
        # direct chunk reads its normals and radii.
        sampler = TruncatedSampler(isotropic_normalization("ball", 8), 1.0, random_stream(1, 2))
        assert sampler.mode == "rejection"
        assert hashlib.sha256(drawn(sampler, 5000).tobytes()).hexdigest() == (
            "cbc5fabb7a970937e6f0f1453ae29316779ae5e3026cab9a3f176d3580dafdd9"
        )

    def test_rejection_seed_holds_no_batch(self, child_peak_rss_mb):
        # One seed of configs/truncated.cfg: M = 306,763 rows in n = 16, 39 MB as
        # one (M, n) array.  Holding that array rose about 44 MB above the import;
        # the streamed chunks and the (M,) norms rise about 9 MB.
        base = child_peak_rss_mb(HARNESS_IMPORT)
        assert child_peak_rss_mb(TRUNCATED_SEED_RUN) - base < 20

    def test_pilot_memory_is_bounded(self, child_peak_rss_mb):
        # The pilot's largest stage is 1,048,576 simplex8 rows (about 75 MB per
        # (rows, 9) array); with each stage drawn whole the pilot peaks near 180 MB.
        assert child_peak_rss_mb(PILOT_RUN) < 150


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
        pts = john_draws(jd, 2000, random_stream(0, 0))
        assert np.allclose(np.linalg.norm(pts, axis=1), math.sqrt(5.0), atol=1e-12)

    def test_single_draw(self):
        jd = canonical_john("cross-polytope", 3)
        y = john_draws(jd, 1, random_stream(1, 0))[0]
        assert abs(np.linalg.norm(y) - math.sqrt(3.0)) <= 1e-12

    def test_cube_vertices_frequencies(self):
        # Each of the 8 support points has sampling probability
        # c_i / n = (3/8) / 3 = 1/8; multinomial 3-sigma bands at M = 1e5.
        m = 100_000
        jd = canonical_john("cube-vertices", 3)
        support, probs = john_support(jd)
        assert np.allclose(probs, 0.125, atol=0)
        pts = john_draws(jd, m, random_stream(0, 42))
        keys = [tuple(np.sign(p).astype(int)) for p in support]
        counts = collections.Counter(tuple(np.sign(p).astype(int)) for p in pts)
        freqs = np.array([counts[k] / m for k in keys])
        se = math.sqrt(0.125 * 0.875 / m)
        assert np.abs(freqs - 0.125).max() <= 3.0 * se

    def test_batch_shape(self):
        jd = canonical_john("cross-polytope", 2)
        assert john_draws(jd, 10, random_stream(4, 5)).shape == (10, 2)
