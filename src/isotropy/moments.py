"""Empirical second moments, deviation from identity, and whitening.

The central object is T = (1/M) sum y_i (x) y_i for a batch of vectors.
Its operator-norm distance from the identity is the left side of the
concentration bound this project measures; the right side's shape is
sqrt(log M / M) times the log-M power mean of the vector norms.  The
ratio of the two is the empirical absolute constant reported per draw.
"""

from __future__ import annotations

import math

import numpy as np

from .samplers import SampleBatch, _row_norms
from .symlin import inv_sqrt, operator_norm

__all__ = [
    "empirical_second_moment",
    "deviation",
    "log_moment",
    "concentration_report",
    "whiten",
]


def empirical_second_moment(batch: SampleBatch) -> np.ndarray:
    """T = (1/M) sum y_i (x) y_i as an (n, n) array, accumulated in fixed (matrix product) order."""
    y = batch.vectors
    return (y.T @ y) / y.shape[0]


def deviation(t: np.ndarray) -> float:
    """Operator norm of T - id."""
    return operator_norm(t - np.eye(t.shape[0]))


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
        raise ValueError("exponent p must be positive")
    # One (M,) array: the row norms, then the log-domain terms in place.
    # log(0) = -inf gives exp(-inf) = 0 for zero rows.
    w = _row_norms(batch.vectors)
    top = float(np.max(w))
    if top == 0.0:
        return 0.0
    lstar = np.log(top)
    with np.errstate(divide="ignore"):
        np.log(w, out=w)
    w -= lstar
    w *= p
    np.exp(w, out=w)
    total = float(np.sum(w))
    return float(np.exp(lstar + np.log(total / m) / p))


def concentration_report(batch: SampleBatch) -> dict:
    """Deviation, log-M moment, the bound's shape term, and their ratio, keyed by column name."""
    m = batch.M
    if m < 3:
        raise ValueError("need M >= 3 so the exponent log M exceeds 1")
    dev = deviation(empirical_second_moment(batch))
    lm = log_moment(batch)
    rhs_shape = math.sqrt(math.log(m) / m) * lm
    ratio = dev / rhs_shape if rhs_shape > 0.0 else math.inf
    return {"deviation": dev, "log_moment": lm, "rhs_shape": rhs_shape, "ratio": ratio}


def whiten(t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply T^(-1/2), the map that restores isotropy to what T was estimated from, to each row of ``points``."""
    return np.asarray(points, dtype=float) @ inv_sqrt(t)
