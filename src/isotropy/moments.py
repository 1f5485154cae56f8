"""Empirical second moments and their deviation from identity.

The central object is T = (1/M) sum y_i (x) y_i for M vectors y_i.  Its
operator-norm distance from the identity is the left side of the
concentration bound this project measures; the right side's shape is
sqrt(log M / M) times the log-M power mean ((1/M) sum |y_i|^p)^(1/p),
p = max(2, ln M), of the vector norms.  The ratio of the two is the
empirical absolute constant reported per draw.  Both sides need only T and
the M vector norms, so concentration_report reads its vectors as a stream of
row chunks and never holds them all.  One private Gram fold sums T over such
a stream; the report and the harness's whiten row, which estimates T from
distorted chunks, both use it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .samplers import _row_norms
from .symlin import operator_norm

__all__ = [
    "deviation",
    "concentration_report",
]


def _streamed_second_moment(chunks: Iterable[np.ndarray], m: int, norms: np.ndarray | None = None) -> np.ndarray:
    """T = (1/m) sum c^T c over a stream of (rows, n) chunks that holds m vectors in all.

    Each chunk must be a 2-D array of at least one vector, all finite.  Its Gram product
    g comes first; the trace of g is the chunk's sum of squares, so it tests finiteness.
    Only a non-finite trace costs the full test, and then a finite chunk forms g again
    under the caller's errstate: under over="raise" its overflow raises there, before
    its row norms, which einsum would overflow to inf.  g is added to T in place, in
    chunk order, so no (m, n) array forms; one chunk y gives the bits of (y^T @ y) / m.
    The row norms go into ``norms``, in stream order, when given.
    """
    t = None
    got = 0
    for chunk in chunks:
        y = np.asarray(chunk, dtype=float)
        if y.ndim != 2 or y.shape[0] < 1:
            raise ValueError(f"batch needs at least one vector, got shape {y.shape}")
        rows = y.shape[0]
        if got + rows > m:
            raise ValueError(f"the stream holds more than M = {m} vectors")
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 or an overflow; the checks below name them
            g = y.T @ y
        if not math.isfinite(float(g.trace())):
            if not np.isfinite(y).all():
                raise ValueError("batch vectors must be finite")
            g = y.T @ y  # a finite chunk that overflows, once more under the caller's errstate
        if norms is not None:
            _row_norms(y, out=norms[got : got + rows])
        if t is None:
            t = g
        else:
            t += g
        got += rows
    if got != m:
        raise ValueError(f"the stream holds {got} vectors, not M = {m}")
    t /= m
    return t


def deviation(t: np.ndarray) -> float:
    """Operator norm of T - id."""
    return operator_norm(t - np.eye(t.shape[0]))


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

    The m vectors arrive as a stream of (rows, n) chunks, each checked for shape
    and finiteness and read once.  Only the sum T = sum c^T c, in chunk order, and
    one (m,) array of row norms are kept, so a stream never forms an (m, n) array.
    One chunk y gives T = (y^T @ y) / m bit for bit; more chunks give the same log
    moment and a T that differs only by rounding.
    """
    if m < 3:
        raise ValueError("need M >= 3 so the exponent log M exceeds 1")
    norms = np.empty(m)  # before the first chunk, so an M too large to hold fails before any draw
    dev = deviation(_streamed_second_moment(chunks, m, norms))
    lm = _power_mean(norms, max(2.0, math.log(m)))
    rhs_shape = math.sqrt(math.log(m) / m) * lm
    ratio = dev / rhs_shape if rhs_shape > 0.0 else math.inf
    return {"deviation": dev, "log_moment": lm, "rhs_shape": rhs_shape, "ratio": ratio}
