"""Rademacher rank-one sums and the symmetrization inequality, empirically.

For points y_1..y_M and independent signs eps_i, the operator norm of
sum eps_i y_i (x) y_i concentrates below
sqrt(log M) * max_i |y_i| * |sum y_i (x) y_i|^(1/2) times an absolute
constant.  This module estimates the left side by Monte Carlo, computes
it exactly by sign enumeration when M is small, and reports the ratio to
the bound shape.  It also measures both sides of the symmetrization
inequality that reduces mean deviation to the signed sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samplers import RandomStream
from .symlin import SymMatrix, operator_norm, operator_norm_batch

__all__ = [
    "BernoulliError",
    "SignedSumReport",
    "SymmetrizationResult",
    "rademacher_trial_norms",
    "rademacher_exact",
    "bound_ratio",
    "symmetrization_check",
]

EXACT_ENUMERATION_CAP = 20
DEFAULT_TRIALS = 1000


class BernoulliError(ValueError):
    pass


def _as_points(points) -> np.ndarray:
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise BernoulliError(f"need a nonempty (M, n) point array, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise BernoulliError("points must be finite")
    return y


def _signed_sum_norms(y: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Operator norms of sum_i signs[t, i] y_i (x) y_i for each row t of signs.

    Row i of ``outer`` is y_i (x) y_i flattened, so a chunk of signed sums
    is one GEMM; the chunk cap bounds the working set to 2^20 entries.
    """
    m, n = y.shape
    outer = (y[:, :, None] * y[:, None, :]).reshape(m, n * n)
    chunk = max(1, (1 << 20) // (n * n))
    norms = np.empty(signs.shape[0])
    for start in range(0, signs.shape[0], chunk):
        sums = signs[start : start + chunk] @ outer
        norms[start : start + chunk] = operator_norm_batch(sums.reshape(-1, n, n))
    return norms


def rademacher_trial_norms(points, trials: int, rng: RandomStream) -> np.ndarray:
    """Per-trial norms |sum eps_i y_i (x) y_i| with fresh signs each trial."""
    if trials < 1:
        raise BernoulliError("trials must be >= 1")
    y = _as_points(points)
    signs = rng.signs((trials, y.shape[0]))
    return _signed_sum_norms(y, signs)


def rademacher_exact(points) -> float:
    """Exact expectation by enumerating all sign patterns (M <= 20).

    Negating every sign leaves the norm unchanged, so only patterns with
    the first sign fixed to +1 are enumerated.
    """
    y = _as_points(points)
    m = y.shape[0]
    if m > EXACT_ENUMERATION_CAP:
        raise BernoulliError(f"exact enumeration capped at M={EXACT_ENUMERATION_CAP}, got {m}")
    k = np.arange(2 ** (m - 1))
    signs = np.ones((k.size, m))
    if m > 1:
        signs[:, 1:] = 1.0 - 2.0 * ((k[:, None] >> np.arange(m - 1)) & 1)
    norms = _signed_sum_norms(y, signs)
    # Spot-check the halving symmetry on the first pattern.
    flipped = _signed_sum_norms(y, -signs[:1])
    assert abs(flipped[0] - norms[0]) <= 1e-12 * (1.0 + norms[0]), "sign-flip symmetry violated"
    return float(np.mean(norms))


@dataclass(frozen=True)
class SignedSumReport:
    """Monte Carlo estimate of the signed sum norm against the bound shape."""

    M: int
    n: int
    trials: int
    seed: int
    estimate: float
    Q: float
    base_norm: float
    bound_shape: float
    ratio: float


def bound_ratio(points, trials: int, rng: RandomStream, seed: int | None = None) -> SignedSumReport:
    """Assemble the signed-sum estimate, the bound shape, and their ratio.

    The ratio is the empirical constant of the signed rank-one bound for
    this point set.  The bound is an upper bound only: at fixed n the
    signed sum grows like sqrt(M log 2n), not sqrt(M log M), so the ratio
    decreases as M grows.
    """
    y = _as_points(points)
    m, n = y.shape
    if m < 3:
        raise BernoulliError("need M >= 3")
    norms = rademacher_trial_norms(y, trials, rng)
    estimate = float(np.mean(norms))
    q = float(np.max(np.linalg.norm(y, axis=1)))
    base = operator_norm(SymMatrix.from_dense(y.T @ y))
    bound_shape = math.sqrt(math.log(m)) * q * math.sqrt(base)
    ratio = estimate / bound_shape if bound_shape > 0.0 else math.inf
    return SignedSumReport(
        M=m,
        n=n,
        trials=trials,
        seed=rng.seed if seed is None else seed,
        estimate=estimate,
        Q=q,
        base_norm=base,
        bound_shape=bound_shape,
        ratio=ratio,
    )


@dataclass(frozen=True)
class SymmetrizationResult:
    """Both sides of the symmetrization inequality with standard errors."""

    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    trials: int

    def holds(self, k: float = 3.0) -> bool:
        """lhs <= rhs up to k combined standard errors of Monte Carlo noise."""
        return self.lhs <= self.rhs + k * math.hypot(self.lhs_se, self.rhs_se)


def symmetrization_check(draw, n: int, M: int, trials: int, rng: RandomStream) -> SymmetrizationResult:
    """Estimate E|T - id| and 2 E|(1/M) sum eps y (x) y| for an isotropic sampler.

    ``draw(m, rng)`` must return m fresh vectors.  The left side uses one
    fresh batch per trial; the right side uses another fresh batch and
    fresh signs per trial, matching the inequality's independent copies.
    """
    if trials < 1:
        raise BernoulliError("trials must be >= 1")
    eye = np.eye(n)
    lhs_mats = np.empty((trials, n, n))
    rhs_mats = np.empty((trials, n, n))
    for t in range(trials):
        y = np.asarray(draw(M, rng), dtype=float)
        lhs_mats[t] = (y.T @ y) / M - eye
        y2 = np.asarray(draw(M, rng), dtype=float)
        eps = rng.signs(M)
        rhs_mats[t] = ((eps[:, None] * y2).T @ y2) / M
    lhs_norms = operator_norm_batch(lhs_mats)
    rhs_norms = operator_norm_batch(rhs_mats)
    lhs = float(np.mean(lhs_norms))
    rhs = 2.0 * float(np.mean(rhs_norms))
    lhs_se = float(np.std(lhs_norms, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    rhs_se = 2.0 * float(np.std(rhs_norms, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SymmetrizationResult(lhs=lhs, rhs=rhs, lhs_se=lhs_se, rhs_se=rhs_se, trials=trials)
