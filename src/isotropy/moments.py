"""Empirical second moments, deviation from identity, and whitening.

The central object is T = (1/M) sum y_i (x) y_i for a batch of vectors.
Its operator-norm distance from the identity is the left side of the
concentration bound this project measures; the right side's shape is
sqrt(log M / M) times the log-M power mean of the vector norms.  The
ratio of the two is the empirical absolute constant reported per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samplers import SampleBatch
from .symlin import SymMatrix, inv_sqrt, operator_norm

__all__ = [
    "MomentsError",
    "DeviationReport",
    "empirical_second_moment",
    "deviation",
    "log_moment",
    "concentration_report",
    "epsilon_isotropy_check",
    "whitening_transform",
    "whiten",
    "format_float",
]


class MomentsError(ValueError):
    pass


def format_float(x: float) -> str:
    """Decimal with 17 significant digits, the fixed serialization format."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class DeviationReport:
    """Both sides of the concentration bound for one sampled batch."""

    n: int
    M: int
    seed: int
    sampler: str
    deviation: float
    log_moment: float
    rhs_shape: float
    ratio: float


def empirical_second_moment(batch: SampleBatch) -> SymMatrix:
    """T = (1/M) sum y_i (x) y_i, accumulated in fixed (matrix product) order."""
    y = batch.vectors
    if y.shape[0] < 1:
        raise MomentsError("empty batch")
    return SymMatrix.from_dense((y.T @ y) / y.shape[0])


def deviation(t: SymMatrix) -> float:
    """Operator norm of T - id."""
    return operator_norm(t - SymMatrix.identity(t.n))


def log_moment(batch: SampleBatch, p: float | None = None) -> float:
    """Power mean ((1/M) sum |y_i|^p)^(1/p) of the vector norms.

    Defaults to p = max(2, ln M); the floor keeps the exponent meaningful
    for tiny batches.  Computed in the log domain so large norms and large
    p cannot overflow.
    """
    m = batch.M
    if p is None:
        p = max(2.0, math.log(m))
    if p <= 0.0:
        raise MomentsError("exponent p must be positive")
    norms = np.linalg.norm(batch.vectors, axis=1)
    top = float(np.max(norms))
    if top == 0.0:
        return 0.0
    logs = np.full(m, -np.inf)
    nz = norms > 0.0
    logs[nz] = np.log(norms[nz])
    lstar = np.log(top)
    total = float(np.sum(np.exp(p * (logs - lstar))))
    return float(np.exp(lstar + np.log(total / m) / p))


def concentration_report(batch: SampleBatch) -> DeviationReport:
    """Deviation, log-M moment, the bound's shape term, and their ratio."""
    m = batch.M
    if m < 3:
        raise MomentsError("need M >= 3 so the exponent log M exceeds 1")
    p = max(2.0, math.log(m))
    dev = deviation(empirical_second_moment(batch))
    lm = log_moment(batch, p)
    rhs_shape = math.sqrt(math.log(m) / m) * lm
    ratio = dev / rhs_shape if rhs_shape > 0.0 else math.inf
    return DeviationReport(
        n=batch.n,
        M=m,
        seed=batch.seed,
        sampler=batch.sampler,
        deviation=dev,
        log_moment=lm,
        rhs_shape=rhs_shape,
        ratio=ratio,
    )


def epsilon_isotropy_check(t: SymMatrix, eps: float) -> bool:
    """True iff every eigenvalue of T lies in [1-eps, 1+eps], i.e. |T - id| <= eps.

    Equivalent to sandwiching the quadratic form x^T T x between
    (1-eps)|x|^2 and (1+eps)|x|^2 for all x.
    """
    if not 0.0 < eps < 1.0:
        raise MomentsError("eps must lie in (0, 1)")
    return deviation(t) <= eps


def whitening_transform(t: SymMatrix, floor: float | None = None) -> SymMatrix:
    """The map T^(-1/2) that restores isotropy to what T was estimated from."""
    return inv_sqrt(t) if floor is None else inv_sqrt(t, floor)


def whiten(t: SymMatrix, points: np.ndarray, floor: float | None = None) -> np.ndarray:
    """Apply T^(-1/2) to each row of ``points``."""
    w = whitening_transform(t, floor)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        return w.mat @ pts
    return pts @ w.mat
