"""Empirical second moments, deviation from identity, and whitening.

The central object is T = (1/M) sum y_i (x) y_i for a batch of vectors.
Its operator-norm distance from the identity is the left side of the
concentration bound this project measures; the right side's shape is
sqrt(log M / M) times the log-M power mean of the vector norms.  The
ratio of the two is the empirical absolute constant reported per draw.
Both sides need only T and the M vector norms, so concentration_report
reads its vectors as a stream of row chunks and never holds the batch.
One private Gram fold sums T over such a stream; the report and the
harness's whiten row, which estimates T from distorted chunks, both use it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

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


def _streamed_second_moment(chunks: Iterable[np.ndarray], m: int, norms: np.ndarray | None = None) -> np.ndarray:
    """T = (1/m) sum c^T c over a stream of (rows, n) chunks that holds m vectors in all.

    Each chunk is checked as a SampleBatch and its Gram product added to T in place, in
    chunk order, so no (m, n) array forms; one chunk gives the bits of
    empirical_second_moment.  The row norms go into ``norms``, in stream order, when given.
    """
    t = None
    got = 0
    for chunk in chunks:
        y = SampleBatch(chunk).vectors
        rows = y.shape[0]
        if got + rows > m:
            raise ValueError(f"the stream holds more than M = {m} vectors")
        if norms is not None:
            _row_norms(y, out=norms[got : got + rows])
        if t is None:
            t = y.T @ y
        else:
            t += y.T @ y
        got += rows
    if got != m:
        raise ValueError(f"the stream holds {got} vectors, not M = {m}")
    t /= m
    return t


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
    return _power_mean(_row_norms(batch.vectors), p)


def _power_mean(w: np.ndarray, p: float) -> float:
    """((1/M) sum w_i^p)^(1/p) of the M norms w, in the log domain; w is overwritten."""
    # log(0) = -inf gives exp(-inf) = 0 for zero rows.
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
    return float(np.exp(lstar + np.log(total / w.shape[0]) / p))


def concentration_report(chunks: Iterable[np.ndarray], m: int) -> dict:
    """Deviation, log-M moment, the bound's shape term, and their ratio, keyed by column name.

    The m vectors arrive as a stream of (rows, n) chunks, each checked as a
    SampleBatch.  Only the sum T = sum c^T c, in chunk order, and one (m,)
    array of row norms are kept, so a stream never forms an (m, n) array.  One
    chunk gives the bits of empirical_second_moment and log_moment on the
    whole batch; more chunks give the same log moment and a T that differs
    only by rounding.
    """
    if m < 3:
        raise ValueError("need M >= 3 so the exponent log M exceeds 1")
    norms = np.empty(m)  # before the first chunk, so an M too large to hold fails before any draw
    dev = deviation(_streamed_second_moment(chunks, m, norms))
    lm = _power_mean(norms, max(2.0, math.log(m)))
    rhs_shape = math.sqrt(math.log(m) / m) * lm
    ratio = dev / rhs_shape if rhs_shape > 0.0 else math.inf
    return {"deviation": dev, "log_moment": lm, "rhs_shape": rhs_shape, "ratio": ratio}


def whiten(t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply T^(-1/2), the map that restores isotropy to what T was estimated from, to each row of ``points``."""
    return np.asarray(points, dtype=float) @ inv_sqrt(t)
