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

import numpy as np

from .symlin import operator_norm

__all__ = [
    "rademacher_trial_norms",
    "rademacher_exact",
    "bound_ratio",
    "symmetrization_check",
]

EXACT_ENUMERATION_CAP = 20
DEFAULT_TRIALS = 1000
_SIGN_ENTRIES = 1 << 16  # signs per chunk of a signed-sum GEMM: 768 KiB as int32 draw plus floats
_STACK_ENTRIES = 1 << 19  # matrix entries per stack handed to operator_norm: 4 MiB of floats


def _signs(rng: np.random.Generator, size) -> np.ndarray:
    """Independent +-1 variables with probability 1/2 each, as floats."""
    # int32 and int64 draws on [0, 2) take the same 32-bit path: the same values and the
    # same stream state after, from half the bytes.
    s = rng.integers(0, 2, size=size, dtype=np.int32).astype(float)
    s *= -2.0
    s += 1.0
    return s


def _as_points(points) -> np.ndarray:
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or 0 in y.shape:
        raise ValueError(f"need an (M, n) point array with M, n >= 1, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("points must be finite")
    return y


def _signed_sum_norms(y: np.ndarray, sign_rows, trials: int) -> np.ndarray:
    """Operator norms of sum_i s[t, i] y_i (x) y_i for t < trials.

    ``sign_rows(a, b)`` returns rows a..b-1 of the (trials, M) sign array s;
    it is called on consecutive ranges, so s is never held whole.  Row i of
    the (M, n(n+1)/2) ``design`` matrix is the lower triangle of
    y_i (x) y_i, row by row: column (j, k), j >= k, holds y_ij y_ik.  So
    each chunk of signed sums is one GEMM against ``design``, whose columns
    fill both triangles of a (rows, n, n) stack for one operator_norm call.
    """
    m, n = y.shape
    design = np.empty((m, n * (n + 1) // 2))
    for j in range(n):
        c = j * (j + 1) // 2
        np.multiply(y[:, j : j + 1], y[:, : j + 1], out=design[:, c : c + j + 1])
    # Entries (j, k) and (k, j) of a signed sum both read design column (j, k).
    column = np.empty((n, n), dtype=np.intp)
    lower = np.tril_indices(n)
    column[lower] = column.T[lower] = np.arange(design.shape[1])
    # BLAS rounds a one-row product (gemv) or one under about 2^20 multiply-adds (a small-matrix
    # kernel) unlike a larger GEMM, gemv (n = 1) rounds alike only by aligned groups of 4 rows, and
    # a threaded GEMM can round rows by how it splits them.  So a chunk is a multiple of 4 rows and
    # about _SIGN_ENTRIES signs but at most _STACK_ENTRIES sum entries, never under 2^20
    # multiply-adds, and the last chunk takes the remainder: each row of sums has the bits of one
    # whole GEMM against ``design`` (checked with 1 and 2 OpenBLAS threads, not for every shape or
    # build).
    floor = -(-(1 << 20) // (4 * design.size))
    rows = 4 * max(floor, min(-(-_SIGN_ENTRIES // (4 * m)), _STACK_ENTRIES // (4 * n * n)))
    norms = np.empty(trials)
    a = 0
    while a < trials:
        b = trials if trials - a < 2 * rows else a + rows
        sums = sign_rows(a, b) @ design
        norms[a:b] = operator_norm(sums[:, column])
        a = b
    return norms


def rademacher_trial_norms(points, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Per-trial norms |sum eps_i y_i (x) y_i| with fresh signs each trial.

    The signs are drawn chunk by chunk in row order, the stream order of one
    (trials, M) draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    y = _as_points(points)
    m = y.shape[0]
    return _signed_sum_norms(y, lambda a, b: _signs(rng, (b - a, m)), trials)


def rademacher_exact(points) -> float:
    """Exact expectation by enumerating all sign patterns (M <= 20).

    Negating every sign leaves the norm unchanged, so only patterns with
    the first sign fixed to +1 are enumerated.
    """
    y = _as_points(points)
    m = y.shape[0]
    if m > EXACT_ENUMERATION_CAP:
        raise ValueError(f"exact enumeration capped at M={EXACT_ENUMERATION_CAP}, got {m}")

    def patterns(a: int, b: int) -> np.ndarray:
        # Pattern k has sign -1 at point i + 1 where bit i of k is set.
        signs = np.ones((b - a, m))
        if m > 1:
            signs[:, 1:] = 1.0 - 2.0 * ((np.arange(a, b)[:, None] >> np.arange(m - 1)) & 1)
        return signs

    norms = _signed_sum_norms(y, patterns, 2 ** (m - 1))
    # Spot-check the halving symmetry on the first pattern.
    flipped = _signed_sum_norms(y, lambda a, b: -patterns(0, 1), 1)
    if not abs(flipped[0] - norms[0]) <= 1e-12 * (1.0 + norms[0]):
        raise ValueError("sign-flip symmetry violated")
    return float(np.mean(norms))


def bound_ratio(points, trials: int, rng: np.random.Generator) -> dict:
    """The signed-sum estimate, the bound shape, and their ratio, keyed by column name.

    The ratio is the empirical constant of the signed rank-one bound for
    this point set.  The bound is an upper bound only: at fixed n the
    signed sum grows like sqrt(M log 2n), not sqrt(M log M), so the ratio
    decreases as M grows.
    """
    y = _as_points(points)
    m = y.shape[0]
    if m < 3:
        raise ValueError("need M >= 3")
    norms = rademacher_trial_norms(y, trials, rng)
    estimate = float(np.mean(norms))
    q = float(np.max(np.linalg.norm(y, axis=1)))
    base = operator_norm(y.T @ y)
    bound_shape = math.sqrt(math.log(m)) * q * math.sqrt(base)
    ratio = estimate / bound_shape if bound_shape > 0.0 else math.inf
    return {"estimate": estimate, "Q": q, "base_norm": base, "bound_shape": bound_shape, "ratio": ratio}


def symmetrization_check(draw, n: int, M: int, trials: int, rng: np.random.Generator) -> dict:
    """Estimate E|T - id| and 2 E|(1/M) sum eps y (x) y| for an isotropic sampler.

    ``draw(m, rng)`` must return m fresh vectors.  Each side is its own
    expectation over the same law, so one batch per trial serves both: trial
    t reads ``y = draw(M, rng)``, then ``eps = _signs(rng, M)``, and gives
    lhs_t = |y^T y / M - id| and rhs_t = 2 |(eps * y)^T y / M|.  Returns both
    sides' means and standard errors and ``holds``: lhs <= rhs up to 3
    standard errors of the paired gaps lhs_t - rhs_t, the exact standard
    error of lhs - rhs under the shared batch (no slack for one trial).  The
    matrices are stacked and reduced by block of about _STACK_ENTRIES entries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    eye = np.eye(n)
    block = min(trials, max(1, _STACK_ENTRIES // (n * n)))
    lhs_mats = np.empty((block, n, n))
    rhs_mats = np.empty((block, n, n))
    lhs_norms = np.empty(trials)
    rhs_norms = np.empty(trials)
    for a in range(0, trials, block):
        b = min(trials, a + block)
        for t in range(b - a):
            y = np.asarray(draw(M, rng), dtype=float)
            lhs_mats[t] = (y.T @ y) / M - eye
            eps = _signs(rng, M)
            rhs_mats[t] = ((eps[:, None] * y).T @ y) / M
        lhs_norms[a:b] = operator_norm(lhs_mats[: b - a])
        rhs_norms[a:b] = 2.0 * operator_norm(rhs_mats[: b - a])

    def se(values: np.ndarray) -> float:
        return float(np.std(values, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0

    lhs = float(np.mean(lhs_norms))
    rhs = float(np.mean(rhs_norms))
    holds = lhs <= rhs + 3.0 * se(lhs_norms - rhs_norms)
    return {"lhs": lhs, "rhs": rhs, "lhs_se": se(lhs_norms), "rhs_se": se(rhs_norms), "holds": holds}
