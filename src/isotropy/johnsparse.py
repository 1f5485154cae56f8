"""Randomized sparsification of John decompositions.

Draw M points from the John point mass, accept the draw when the
empirical second moment is close to the identity and the point sum is
small, then recenter.  The accepted points, rescaled to the unit sphere
and shifted, give an equal-weight approximate decomposition of the
identity with an operator-norm residual certificate below eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import JohnDecomposition, _frozen
from .samplers import john_draws
from .symlin import operator_norm

__all__ = [
    "SparsifyRejectionError",
    "ApproxJohn",
    "choose_M",
    "sparsify",
    "verify",
]

DEFAULT_C = 2.0
DEFAULT_MAX_ATTEMPTS = 16
# Point-sum acceptance threshold |sum y_i| <= POINT_SUM_FACTOR * sqrt(M n).
# The John point mass has mean zero and |y| = sqrt(n), so E|sum y|^2 = M n
# exactly and Markov at twice the RMS keeps the acceptance probability
# above 3/4.  This threshold (not sqrt(M) alone, which no bound supports
# for n > 4) is also what the downstream shift bound |u| <= 2/sqrt(M) and
# the residual term 4n/M require.
POINT_SUM_FACTOR = 2.0


class SparsifyRejectionError(ValueError):
    """Every attempt was rejected; carries per-condition failure counts."""

    def __init__(self, attempts: int, deviation_failures: int, point_sum_failures: int):
        self.attempts = attempts
        self.deviation_failures = deviation_failures
        self.point_sum_failures = point_sum_failures
        super().__init__(
            f"all {attempts} attempts rejected "
            f"(deviation condition failed {deviation_failures}x, "
            f"point-sum condition failed {point_sum_failures}x)"
        )


@dataclass(frozen=True, eq=False)
class ApproxJohn:
    """Equal-weight approximate John decomposition with residual certificate.

    id = (n/M) sum (x_i + u) (x) (x_i + u) + S with |S| = residual_norm.
    """

    points: np.ndarray
    shift: np.ndarray
    residual_norm: float
    attempts: int

    def __post_init__(self):
        x = _frozen(self.points, "points and shift")
        u = _frozen(self.shift, "points and shift")
        if x.ndim != 2 or u.shape != (x.shape[1],):
            raise ValueError(f"inconsistent shapes: points {x.shape}, shift {u.shape}")
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "shift", u)

    @property
    def M(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def choose_M(n: int, eps: float, C: float) -> int:
    """Sample count ceil((C/eps^2) n log(n/eps)), floored at n+1."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if C <= 0.0:
        raise ValueError("C must be positive")
    m = math.ceil((C / eps**2) * n * math.log(n / eps))
    return max(m, n + 1)


def _residual_matrix(points: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """S = id - (n/M) sum (x_i + u) (x) (x_i + u), via one matrix product."""
    m, n = points.shape
    shifted = points + shift
    return np.eye(n) - (n / m) * (shifted.T @ shifted)


def sparsify(
    jd: JohnDecomposition,
    eps: float,
    rng: np.random.Generator,
    C: float = DEFAULT_C,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> ApproxJohn:
    """Sample an equal-weight approximate decomposition with residual below eps.

    Each attempt draws M points y_i = sqrt(n) z_i from the decomposition's
    point mass and accepts when both
      (a) the empirical second moment is within eps/2 of the identity, and
      (b) |sum y_i| <= 2 sqrt(M n).
    Accepted draws are rescaled (x_i = y_i / sqrt(n)) and recentered by
    u = -mean(x_i), which keeps |u| <= 2/sqrt(M); the residual then
    provably stays below eps/2 + 4n/M.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    n = jd.n
    m = choose_M(n, eps, C)
    dev_failures = 0
    sum_failures = 0
    for attempt in range(1, max_attempts + 1):
        y = john_draws(jd, m, rng)
        dev = operator_norm((y.T @ y) / m - np.eye(n))
        point_sum = float(np.linalg.norm(y.sum(axis=0)))
        ok_dev = dev <= eps / 2.0
        ok_sum = point_sum <= POINT_SUM_FACTOR * math.sqrt(m * n)
        if not ok_dev:
            dev_failures += 1
        if not ok_sum:
            sum_failures += 1
        if not (ok_dev and ok_sum):
            continue
        x = y / math.sqrt(n)
        u = -x.mean(axis=0)
        residual = operator_norm(_residual_matrix(x, u))
        if residual >= eps:
            # Should be unreachable once 4n/M <= eps/2; a failure here means
            # the constant C is too small, not bad luck.
            raise ValueError(
                f"certificate failed: residual {residual:.6g} >= eps {eps:.6g} "
                f"with M={m} (increase C so that 4n/M <= eps/2)"
            )
        return ApproxJohn(points=x, shift=u, residual_norm=residual, attempts=attempt)
    raise SparsifyRejectionError(max_attempts, dev_failures, sum_failures)


def verify(a: ApproxJohn) -> dict:
    """Recompute the certificate from scratch, independently of sparsify.

    Uses a separate accumulation route (einsum contraction) for the
    rank-one sum, so agreement with the stored residual is a real
    crosscheck rather than a replay of the same arithmetic.  Returns the
    residual norm, the scaled shift |u| sqrt(M) and the centroid norm.
    """
    m, n = a.M, a.n
    shifted = a.points + a.shift
    gram = np.einsum("mi,mj->ij", shifted, shifted)
    s = np.eye(n) - (n / m) * gram
    residual = operator_norm(s)
    u_scaled = float(np.linalg.norm(a.shift)) * math.sqrt(m)
    centroid = float(np.linalg.norm(shifted.sum(axis=0)))
    return {"residual_norm": residual, "u_norm_sqrt_m": u_scaled, "centroid_norm": centroid}
