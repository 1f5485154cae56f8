"""Dense symmetric linear algebra.

Everything downstream (second-moment matrices, whitening transforms,
residual certificates) lives on small dense symmetric matrices, so this
module provides exactly four operations: rank-one accumulation, a full
spectral decomposition, the operator norm, and the inverse square root.
Spectra come from LAPACK through numpy's batched ``eigh`` / ``eigvalsh``;
the batch forms are exposed because the Monte Carlo modules need
operator norms of many matrices at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SymLinError",
    "NotPositiveSemidefiniteError",
    "SymMatrix",
    "EigenDecomposition",
    "rank_one_accumulate",
    "eigen",
    "eigen_batch",
    "operator_norm",
    "operator_norm_batch",
    "inv_sqrt",
]

DEFAULT_EIG_FLOOR = 1e-8


class SymLinError(ValueError):
    """Base error for this module."""


class NotPositiveSemidefiniteError(SymLinError):
    """Matrix has a negative eigenvalue beyond the regularization floor."""


def _mirror_upper(a: np.ndarray) -> np.ndarray:
    """Return a copy of ``a`` whose lower triangle mirrors the upper exactly."""
    u = np.triu(a)
    return u + np.triu(a, 1).T


@dataclass(frozen=True)
class SymMatrix:
    """Immutable dense symmetric matrix.

    Only the upper triangle is authoritative; the stored array mirrors it
    onto the lower triangle, so ``mat[i, j] == mat[j, i]`` holds exactly
    (bitwise).  All entries must be finite.
    """

    mat: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SymLinError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SymLinError("matrix entries must be finite")
        a = _mirror_upper(a)
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def from_dense(cls, a: np.ndarray, asym_tol: float = 1e-9) -> "SymMatrix":
        """Build from a nearly-symmetric dense array.

        Rejects input whose asymmetry exceeds ``asym_tol`` relative to the
        largest entry; the upper triangle wins below that.
        """
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SymLinError(f"expected a square matrix, got shape {a.shape}")
        scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
        if np.max(np.abs(a - a.T), initial=0.0) > asym_tol * scale:
            raise SymLinError("input matrix is not symmetric within tolerance")
        return cls(a)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        return SymMatrix(self.mat + other.mat)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._check_same_dim(other)
        return SymMatrix(self.mat - other.mat)

    def __mul__(self, c: float) -> "SymMatrix":
        return SymMatrix(self.mat * float(c))

    __rmul__ = __mul__

    def _check_same_dim(self, other: "SymMatrix"):
        if self.n != other.n:
            raise SymLinError(f"dimension mismatch: {self.n} vs {other.n}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectral decomposition A = Q diag(eigenvalues) Q^T.

    Eigenvalues are sorted descending; column i of ``eigenvectors`` pairs
    with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def rank_one_accumulate(acc: SymMatrix, y: np.ndarray, w: float) -> SymMatrix:
    """Return ``acc + w * (y outer y)``.

    Each entry of the update is formed independently as ``w * y[i] * y[j]``
    over the upper triangle in row-major order (then mirrored), so repeated
    accumulation is bit-reproducible.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != acc.n:
        raise SymLinError(f"vector dimension {y.shape} does not match matrix dimension {acc.n}")
    if not np.all(np.isfinite(y)) or not np.isfinite(w):
        raise SymLinError("non-finite input to rank_one_accumulate")
    return SymMatrix(acc.mat + float(w) * np.outer(y, y))


def _as_stack(mats) -> np.ndarray:
    """Validate a (B, n, n) stack of finite matrices and return it as floats."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise SymLinError(f"expected a (B, n, n) stack, got shape {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise SymLinError("matrix entries must be finite")
    return mats


def eigen_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decompositions of a (B, n, n) stack of symmetric matrices.

    Returns (eigenvalues (B, n) sorted descending per matrix, eigenvectors
    (B, n, n) with matching column order).  Only the lower triangle of
    each matrix is read.
    """
    vals, vecs = np.linalg.eigh(_as_stack(mats))
    return vals[:, ::-1], vecs[:, :, ::-1]


def eigen(a: SymMatrix) -> EigenDecomposition:
    """Full spectral decomposition of one symmetric matrix."""
    vals, vecs = eigen_batch(a.mat[None, :, :])
    return EigenDecomposition(eigenvalues=vals[0], eigenvectors=vecs[0])


def operator_norm_batch(mats: np.ndarray) -> np.ndarray:
    """Operator norms of a (B, n, n) symmetric stack: max(-lambda_min, lambda_max).

    No eigenvectors are formed.  An empty (n = 0) matrix has norm 0.
    """
    mats = _as_stack(mats)
    if mats.shape[1] == 0:
        return np.zeros(mats.shape[0])
    vals = np.linalg.eigvalsh(mats)
    return np.maximum(-vals[:, 0], vals[:, -1])


def operator_norm(a: SymMatrix) -> float:
    """The l2 -> l2 operator norm, i.e. the largest absolute eigenvalue."""
    return float(operator_norm_batch(a.mat[None])[0])


def inv_sqrt(a: SymMatrix, floor: float = DEFAULT_EIG_FLOOR) -> SymMatrix:
    """Inverse square root Q diag(lambda^-1/2) Q^T with eigenvalue flooring.

    Eigenvalues below ``floor`` are clamped to ``floor`` before inversion,
    which regularizes nearly singular inputs.  A genuinely negative
    eigenvalue (magnitude above the floor) is an error.
    """
    if floor <= 0.0:
        raise SymLinError("floor must be positive")
    dec = eigen(a)
    vals = dec.eigenvalues
    if np.any((vals < 0.0) & (np.abs(vals) > floor)):
        raise NotPositiveSemidefiniteError(
            f"not positive semidefinite within tolerance (min eigenvalue {vals.min():.3e})"
        )
    clamped = np.maximum(vals, floor)
    q = dec.eigenvectors
    return SymMatrix.from_dense((q * (1.0 / np.sqrt(clamped))) @ q.T, asym_tol=1e-8)
