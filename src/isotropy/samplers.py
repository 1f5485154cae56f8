"""Seedable samplers for uniform draws from bodies and John point masses.

Randomness flows through RandomStream, a counter-based (Philox) generator
keyed by (seed, stream id).  Distinct stream ids from one seed give
independent streams, which is what lets experiment harnesses fan trials
out without sharing state.  All batch draws consume the stream in a fixed
documented order, so identical (seed, stream, parameters) reproduce a
batch bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import Ball, Body, Cube, Ellipsoid, JohnDecomposition, Simplex, Truncated

__all__ = [
    "SamplerError",
    "TruncationError",
    "RandomStream",
    "SampleBatch",
    "direct_draws",
    "sample_hit_and_run",
    "TruncatedSampler",
    "john_draws",
    "john_support",
    "seed_from_env",
]

SEED_ENV_VAR = "ISOTROPY_SEED"
MASK64 = (1 << 64) - 1

# Rejection sampling for truncated bodies is abandoned below this measured
# acceptance rate in favor of hit-and-run; below the hard floor the
# truncation is considered infeasible.
REJECTION_MIN_ACCEPTANCE = 1e-3
ACCEPTANCE_HARD_FLOOR = 1e-6
_PILOT_STAGE1 = 4096
_PILOT_TOTAL = 3_000_000

DEFAULT_BURN_IN_PER_DIM = 50
DEFAULT_THIN_PER_DIM = 2


class SamplerError(ValueError):
    """Invalid sampler input or unsupported body variant."""


class TruncationError(SamplerError):
    """Truncation keeps too little of the body to sample from."""


def seed_from_env(default: int) -> int:
    """Resolve the seed, honoring the ISOTROPY_SEED override."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw, 10)
    except ValueError as exc:
        raise SamplerError(f"{SEED_ENV_VAR} must be a decimal integer, got {raw!r}") from exc


@dataclass
class RandomStream:
    """Counter-based random source keyed by (seed, stream id).

    Wraps a Philox generator; splitting off an independent stream is just
    picking a different stream id under the same seed.  Instances are
    single-owner: share seeds, not streams.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        key = (int(self.seed) & MASK64, int(self.stream) & MASK64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, stream: int) -> "RandomStream":
        """Fresh independent stream under the same seed."""
        return RandomStream(seed=self.seed, stream=stream)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def random(self, size=None):
        return self._gen.random(size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def standard_exponential(self, size=None):
        return self._gen.standard_exponential(size)

    def signs(self, size=None) -> np.ndarray:
        """Independent +-1 variables with probability 1/2 each."""
        return 1.0 - 2.0 * self._gen.integers(0, 2, size=size)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """M sampled vectors in dimension n with provenance."""

    vectors: np.ndarray
    sampler: str
    seed: int
    stream: int

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise SamplerError(f"batch needs at least one vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise SamplerError("batch vectors must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def M(self) -> int:
        return self.vectors.shape[0]


def _draw_direct(body: Body, rng: RandomStream, m: int) -> np.ndarray:
    """Vectorized exact uniform draws; consumption order is fixed per variant."""
    n = body.n
    if isinstance(body, Cube):
        return rng.uniform(-body.halfwidth, body.halfwidth, (m, n))
    if isinstance(body, Ball):
        return body.radius * _unit_ball_points(rng, m, n)
    if isinstance(body, Simplex):
        e = rng.standard_exponential((m, n + 1))
        lam = e / e.sum(axis=1, keepdims=True)
        return lam @ body.vertices
    if isinstance(body, Ellipsoid):
        return _unit_ball_points(rng, m, n) @ body.half_map
    raise SamplerError(f"no direct sampler for body {type(body).__name__}; use hit-and-run")


def _unit_ball_points(rng: RandomStream, m: int, n: int) -> np.ndarray:
    g = rng.standard_normal((m, n))
    u = rng.random(m)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0  # measure-zero guard
    return g * (u ** (1.0 / n) / norms)[:, None]


def direct_draws(body: Body, m: int, rng: RandomStream) -> np.ndarray:
    """M exact uniform samples as a plain (m, n) array."""
    if m < 1:
        raise SamplerError("batch size must be >= 1")
    return _draw_direct(body, rng, m)


def _random_direction(rng: RandomStream, n: int) -> np.ndarray:
    g = rng.standard_normal(n)
    norm = np.linalg.norm(g)
    while norm == 0.0:  # measure-zero guard
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
    return g / norm


def sample_hit_and_run(
    body: Body,
    x0,
    burn_in: int,
    thin: int,
    rng: RandomStream,
    count: int = 1,
) -> np.ndarray:
    """Hit-and-run chain: uniform point on a uniformly random chord, repeated.

    Discards ``burn_in`` steps, then emits every ``thin``-th state, ``count``
    times.  Returns an array of shape (count, n).
    """
    if burn_in < 0 or thin < 1 or count < 1:
        raise SamplerError("need burn_in >= 0, thin >= 1, count >= 1")
    x = np.asarray(x0, dtype=float)
    if not body.membership(x):
        raise SamplerError("hit-and-run start point lies outside the body")
    for _ in range(burn_in):
        x = _hit_and_run_step(body, x, rng)
    out = np.empty((count, body.n))
    for j in range(count):
        for _ in range(thin):
            x = _hit_and_run_step(body, x, rng)
        out[j] = x
    return out


def _hit_and_run_step(body: Body, x: np.ndarray, rng: RandomStream) -> np.ndarray:
    d = _random_direction(rng, body.n)
    t_lo, t_hi = body.chord(x, d)
    t = rng.uniform(t_lo, t_hi)
    return x + t * d


def default_burn_in(n: int) -> int:
    return DEFAULT_BURN_IN_PER_DIM * n


def default_thin(n: int) -> int:
    return DEFAULT_THIN_PER_DIM * n


class TruncatedSampler:
    """Uniform sampler on body intersected with the ball of radius R*sqrt(n).

    A pilot run measures the rejection acceptance rate: healthy rates use
    plain rejection from the direct sampler, thin intersections fall back
    to hit-and-run on the truncated body, and rates below the hard floor
    raise TruncationError.
    """

    def __init__(self, body: Body, R: float, rng: RandomStream):
        if R <= 0.0:
            raise SamplerError("truncation factor R must be positive")
        self.body = body
        self.R = float(R)
        self.rho = float(R) * np.sqrt(body.n)
        self.rng = rng
        self.truncated = Truncated(base=body, radius=self.rho)
        self.acceptance = self._pilot_acceptance()
        if self.acceptance < ACCEPTANCE_HARD_FLOOR:
            raise TruncationError(
                f"truncation too aggressive: estimated acceptance {self.acceptance:.2e} "
                f"below {ACCEPTANCE_HARD_FLOOR:.0e}"
            )
        self.mode = "rejection" if self.acceptance >= REJECTION_MIN_ACCEPTANCE else "hit-and-run"

    def _pilot_acceptance(self) -> float:
        draws = 0
        hits = 0
        batch = _PILOT_STAGE1
        while draws < _PILOT_TOTAL:
            pts = _draw_direct(self.body, self.rng, batch)
            hits += int(np.count_nonzero(np.linalg.norm(pts, axis=1) <= self.rho))
            draws += batch
            if hits >= 50:
                break
            batch = min(batch * 8, _PILOT_TOTAL - draws)
            if batch == 0:
                break
        if hits == 0:
            return 0.0
        return hits / draws

    def draw(self, m: int) -> np.ndarray:
        if m < 1:
            raise SamplerError("batch size must be >= 1")
        if self.mode == "rejection":
            return self._draw_rejection(m)
        return sample_hit_and_run(
            self.truncated,
            np.zeros(self.body.n),
            default_burn_in(self.body.n),
            default_thin(self.body.n),
            self.rng,
            count=m,
        )

    def _draw_rejection(self, m: int) -> np.ndarray:
        out = np.empty((m, self.body.n))
        got = 0
        while got < m:
            want = m - got
            batch = max(32, int(np.ceil(want / self.acceptance * 1.2)))
            pts = _draw_direct(self.body, self.rng, batch)
            keep = pts[np.linalg.norm(pts, axis=1) <= self.rho]
            take = min(want, keep.shape[0])
            out[got : got + take] = keep[:take]
            got += take
        return out


def john_support(jd: JohnDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Support points sqrt(n) z_i and their probabilities c_i / n.

    The probabilities are forced by normalization: the weights sum to n,
    and this choice makes the second moment of the point mass exactly the
    identity.
    """
    n = jd.n
    return np.sqrt(n) * jd.points, jd.weights / n


def john_draws(jd: JohnDecomposition, m: int, rng: RandomStream) -> np.ndarray:
    """M draws from the John point mass, by inverse CDF over the fixed point order."""
    support, probs = john_support(jd)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard the top against cumsum roundoff
    u = rng.random(m)
    idx = np.searchsorted(cdf, u, side="right")
    return support[idx]
