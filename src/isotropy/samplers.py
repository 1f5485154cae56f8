"""Seedable samplers for uniform draws from bodies and John point masses.

Randomness flows through plain numpy Generators made by random_stream: SFC64
keyed one-to-one by (seed, stream id) through SeedSequence(seed, spawn_key=(stream,)).
Distinct stream ids from one seed give independent streams, which is what
lets experiment harnesses fan trials out without sharing state.  All batch
draws consume the stream in a fixed documented order, so identical
(seed, stream, parameters) reproduce a batch bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .geometry import Ball, Body, Cube, JohnDecomposition, Simplex, Truncated

__all__ = [
    "random_stream",
    "direct_draws",
    "sample_hit_and_run",
    "TruncatedSampler",
    "john_support",
]

MASK64 = (1 << 64) - 1

# Rejection sampling for truncated bodies is abandoned below this measured
# acceptance rate in favor of hit-and-run; below the hard floor the
# truncation is considered infeasible.
REJECTION_MIN_ACCEPTANCE = 1e-3
ACCEPTANCE_HARD_FLOOR = 1e-6
_PILOT_STAGE_ENDS = (*(4096 << k for k in range(10)), 3_000_000)  # cumulative pilot draws: 4,096 doubled 9 times, then the cap
_CHUNK_ROWS = 1 << 12  # rows per chunk of a streamed or pilot / rejection draw, so memory does not follow M
_THIN_PER_DIM = 2  # the truncated chain emits every (2n)-th state
_HITRUN_BLOCK = 1 << 10  # direction rows (steps times chains) whose normals and uniforms are drawn together
_CHAINS = 64  # hit-and-run chains stepped in lockstep, one batched chord call per step


def random_stream(seed: int, stream: int) -> np.random.Generator:
    """The SFC64 generator keyed by (seed, stream id), each reduced modulo 2**64.

    It is seeded by SeedSequence(seed, spawn_key=(stream,)).  The spawn key
    pads the seed to a fixed width, so distinct 64-bit pairs give distinct
    keys (a (seed, stream) entropy tuple would not: it is flattened into
    variable-length 32-bit words).  An independent stream is just a
    different stream id under the same seed.  Generators are single-owner:
    share seeds, not streams.
    """
    seq = np.random.SeedSequence(int(seed) & MASK64, spawn_key=(int(stream) & MASK64,))
    return np.random.Generator(np.random.SFC64(seq))


def direct_draws(sampler: Body | JohnDecomposition, m: int, rng: np.random.Generator) -> np.ndarray:
    """M exact draws as a plain (m, n) array: uniform points of a cube, ball or simplex, or
    draws of a John decomposition's point mass.  The chunks of ``_draw_chunks`` fill the one
    output array, so the whole draw reads the random stream as its stream of chunks does."""
    if m < 1:
        raise ValueError("batch size must be >= 1")
    pts = np.empty((m, sampler.n))
    for _ in _draw_chunks(sampler, m, rng, out=pts):
        pass
    return pts


def _draw_chunks(
    sampler: Body | JohnDecomposition, m: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """The m draws of ``sampler`` as (rows, n) chunks of _chunk_sizes(m) rows, each drawn as it is read.

    Each chunk is a view of ``out`` when it is given, else of one (min(m, _CHUNK_ROWS + 1), n)
    buffer that every chunk reuses, so a chunk holds its rows only until the next one is read.
    The stream is read in a fixed order per sampler within each chunk, and a John chunk reads
    one uniform per row (``Generator.choice`` over the support), so a stream of chunks reads it
    exactly as one whole draw does.
    """
    n = sampler.n
    if isinstance(sampler, JohnDecomposition):
        support, probs = john_support(sampler)
    elif not isinstance(sampler, (Cube, Ball, Simplex)):
        raise ValueError(f"no direct sampler for body {type(sampler).__name__}; use hit-and-run")
    buf = np.empty((min(m, _CHUNK_ROWS + 1), n)) if out is None else out
    if isinstance(sampler, Simplex):
        exps = np.empty((min(m, _CHUNK_ROWS + 1), n + 1))
    i = 0
    for rows in _chunk_sizes(m):
        block = buf[:rows] if out is None else out[i : i + rows]
        i += rows
        if isinstance(sampler, JohnDecomposition):
            block[...] = rng.choice(support, rows, p=probs)
        elif isinstance(sampler, Cube):
            # Generator.uniform(low, high)'s low + (high - low) * U, same bytes, in faster vector passes.
            low, high = -sampler.halfwidth, sampler.halfwidth
            rng.random(out=block)
            block *= high - low
            block += low
        elif isinstance(sampler, Ball):
            rng.standard_normal(out=block)
            u = rng.random(rows)
            norms = _row_norms(block)
            norms[norms == 0.0] = 1.0  # measure-zero guard
            block *= (u ** (1.0 / n) / norms)[:, None]
            block *= sampler.radius
        else:
            e = rng.standard_exponential(out=exps[:rows])
            e /= np.einsum("ij->i", e)[:, None]
            np.matmul(e, sampler.vertices, out=block)
        yield block


def _chunk_sizes(m: int) -> Iterator[int]:
    """The row counts of an m-row draw read by chunk: _CHUNK_ROWS each, the last up to
    _CHUNK_ROWS + 1.  A one-row product goes through gemv and rounds unlike gemm, so no
    chunk after the first is one row."""
    while m > 0:
        rows = m if m <= _CHUNK_ROWS + 1 else _CHUNK_ROWS
        yield rows
        m -= rows


def _row_norms(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The Euclidean norm of each row of v: one einsum sums each row's squares, so no
    (m, n) v * v temporary forms, and a square root follows in place.  Written into
    ``out`` when it is given."""
    norms = np.einsum("ij,ij->i", v, v, out=out)
    return np.sqrt(norms, out=norms)


def sample_hit_and_run(
    body: Body,
    x0,
    burn_in: int,
    thin: int,
    rng: np.random.Generator,
    count: int = 1,
) -> np.ndarray:
    """Hit-and-run chains: uniform point on a uniformly random chord, repeated.

    K = min(_CHAINS, count) chains step in lockstep; chain k starts at row k mod h of
    ``x0``, one point (n,) or h rows (h, n).  Each discards ``burn_in`` steps, then emits
    every ``thin``-th state: an array of shape (count, n) holding the K states of each
    round in turn, trimmed to ``count``.  The directions and chord positions do not depend
    on the states, so the chains read them by block of at most 1,024 rows (_HITRUN_BLOCK):
    the block's (b, K, n) normals, then its (b, K) uniforms, then, in row order, a fresh
    normal row for each row of squared norm 0 until it is nonzero.  The rows are normalized
    as np.linalg.norm does; each step makes one ``body.chord`` call on the K states and
    moves each by ``(lo + (hi - lo) * u) * d``.
    """
    if burn_in < 0 or thin < 1 or count < 1:
        raise ValueError("need burn_in >= 0, thin >= 1, count >= 1")
    if not np.all(body.membership(x0)):
        raise ValueError("hit-and-run start point lies outside the body")
    n, chains = body.n, min(_CHAINS, count)
    starts = np.asarray(x0, dtype=float).reshape(-1, n)
    x = starts[np.arange(chains) % len(starts)]  # a copy: the chains move it in place
    chord = body.chord
    out = np.empty((count, n))
    step, end = -burn_in, thin * -(-count // chains)
    while step < end:
        b = min(_HITRUN_BLOCK // chains, end - step)
        dirs = rng.standard_normal((b, chains, n))
        uniforms = rng.random((b, chains))
        norms = np.linalg.norm(dirs, axis=2)
        rows, row_norms = dirs.reshape(-1, n), norms.reshape(-1)
        for k in np.flatnonzero(row_norms == 0.0).tolist():  # measure-zero guard
            while row_norms[k] == 0.0:
                rows[k] = rng.standard_normal(n)
                row_norms[k] = np.linalg.norm(rows[k : k + 1], axis=1)[0]  # the block's row reduction
        dirs /= norms[..., None]
        for d, u in zip(dirs, uniforms):
            lo, hi = chord(x, d)
            d *= (lo + (hi - lo) * u)[:, None]
            x += d
            if step >= 0 and step % thin == thin - 1:
                row = step // thin * chains
                out[row : row + chains] = x[: count - row]
            step += 1
    return out


class TruncatedSampler:
    """Uniform sampler on body intersected with the ball of radius R*sqrt(n).

    A pilot run measures the rejection acceptance rate: healthy rates use
    plain rejection from the direct sampler, thin intersections fall back
    to hit-and-run on the truncated body, and rates below the hard floor
    raise ValueError.  The pilot's stages end at 4,096 rows doubled to 2,097,152,
    then at 3,000,000.  It stops at the first end whose hits settle the mode at 3
    sigma (see ``_pilot_acceptance``), else at the cap, where the estimate decides;
    so a hit-and-run ``acceptance`` comes from 3 or more hits.  The lockstep chains
    start at the pilot's first min(hits, _CHAINS) hits, cycled: each an exact uniform
    draw from the truncated body, so every emitted state has the uniform law and there
    is no burn-in.
    """

    def __init__(self, body: Body, R: float, rng: np.random.Generator):
        if R <= 0.0:
            raise ValueError("truncation factor R must be positive")
        self.body = body
        self.rho = float(R) * np.sqrt(body.n)
        self.rng = rng
        self.truncated = Truncated(base=body, radius=self.rho)
        self.acceptance, self._starts = self._pilot_acceptance()
        if self.acceptance < ACCEPTANCE_HARD_FLOOR:
            raise ValueError(
                f"truncation too aggressive: estimated acceptance {self.acceptance:.2e} "
                f"below {ACCEPTANCE_HARD_FLOOR:.0e}"
            )
        self.mode = "rejection" if self.acceptance >= REJECTION_MIN_ACCEPTANCE else "hit-and-run"

    def _pilot_acceptance(self) -> tuple[float, np.ndarray]:
        """The hit rate and first min(hits, _CHAINS) in-radius rows at the first stage end whose rule holds."""
        draws = hits = 0
        starts = np.empty((0, self.body.n))
        for end in _PILOT_STAGE_ENDS:
            while draws < end:
                rows = min(_CHUNK_ROWS, end - draws)
                inside = self._hits(rows)
                if len(starts) < _CHAINS:
                    starts = np.concatenate((starts, inside[: _CHAINS - len(starts)]))
                hits += len(inside)
                draws += rows
            # Stop once the 3-sigma Poisson reading of the rate is wholly above the threshold with 50
            # or more hits, or wholly below it with 3 or more (the first in hand, above the hard floor).
            spread, bar = 3.0 * math.sqrt(hits), REJECTION_MIN_ACCEPTANCE * draws
            if (hits >= 50 and hits - spread > bar) or (hits >= 3 and hits + spread < bar):
                break
        return hits / draws, starts

    def _hits(self, rows: int) -> np.ndarray:
        """The rows x with |x| <= rho among the next ``rows`` <= _CHUNK_ROWS direct draws, in stream order,
        as one copy: ``compress`` takes the rows ``pts[mask]`` would, in under half its time."""
        pts = direct_draws(self.body, rows, self.rng)
        return pts.compress(np.einsum("ij,ij->i", pts, pts) <= self.rho * self.rho, axis=0)

    def draw(self, m: int) -> Iterator[np.ndarray]:
        """The next m points as a stream of (rows, n) chunks, in stream order; m is checked here.

        Rejection yields the in-radius rows of each chunk that ``_hits`` reads, at most
        _CHUNK_ROWS each, the last trimmed; hit-and-run yields the chain's (m, n) array
        as one chunk.  Chunks are drawn as they are read, so no (m, n) array forms for a
        rejection draw.
        """
        if m < 1:
            raise ValueError("batch size must be >= 1")
        return self._chunks(m)

    def _chunks(self, m: int) -> Iterator[np.ndarray]:
        if self.mode == "hit-and-run":
            yield sample_hit_and_run(self.truncated, self._starts, 0, _THIN_PER_DIM * self.body.n, self.rng, count=m)
            return
        # The first m in-radius rows of the direct stream, in stream order.
        while m > 0:
            keep = self._hits(_CHUNK_ROWS)[:m]
            if len(keep):
                yield keep
            m -= len(keep)


def john_support(jd: JohnDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Support points sqrt(n) z_i and their probabilities c_i / n.

    The probabilities are forced by normalization: the weights sum to n,
    and this choice makes the second moment of the point mass exactly the
    identity.
    """
    n = jd.n
    return np.sqrt(n) * jd.points, jd.weights / n

