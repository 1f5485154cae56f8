"""Dense symmetric linear algebra on plain numpy arrays.

Everything downstream (second-moment matrices, whitening transforms,
residual certificates) lives on small dense symmetric matrices, so this
module provides exactly two operations: the operator norm, of one
(n, n) matrix or of a (B, n, n) stack, and the inverse square root.
Spectra come from LAPACK through numpy's ``eigvalsh`` / ``eigh``.  Input
is validated once per call: square with n >= 1, finite, and symmetric
within ``ASYM_TOL * (1 + the matrix's largest absolute entry)``; bad
input raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "operator_norm",
    "inv_sqrt",
]

ASYM_TOL = 1e-9
EIG_FLOOR = 1e-8


def _checked(a, ndims=(2, 3)) -> np.ndarray:
    """``a`` as a float (n, n) matrix, or (B, n, n) stack if 3 is in ``ndims``, validated."""
    a = np.asarray(a, dtype=float)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        want = "an (n, n) matrix or a (B, n, n) stack" if 3 in ndims else "an (n, n) matrix"
        raise ValueError(f"expected {want} with n >= 1, got shape {a.shape}")
    # A NaN or inf entry makes its matrix's largest magnitude non-finite.
    scale = np.max(np.abs(a), axis=(-2, -1))
    if not np.all(np.isfinite(scale)):
        raise ValueError("matrix entries must be finite")
    diff = a - np.swapaxes(a, -1, -2)
    np.abs(diff, out=diff)
    if np.any(np.max(diff, axis=(-2, -1)) > ASYM_TOL * (1.0 + scale)):
        raise ValueError("matrix is not symmetric within tolerance")
    return a


def operator_norm(a):
    """Largest absolute eigenvalue: a float for an (n, n) matrix, a (B,) array for a (B, n, n) stack.

    No eigenvectors are formed; LAPACK reads the lower triangle.
    """
    vals = np.linalg.eigvalsh(_checked(a))
    norms = np.maximum(-vals[..., 0], vals[..., -1])
    return float(norms) if norms.ndim == 0 else norms


def inv_sqrt(a) -> np.ndarray:
    """Inverse square root Q diag(lambda^-1/2) Q^T of an (n, n) matrix, with eigenvalue flooring.

    Eigenvalues below ``EIG_FLOOR`` are clamped to it before inversion,
    which regularizes nearly singular inputs; a genuinely negative
    eigenvalue (magnitude above the floor) is an error.  The columns of Q
    run in descending eigenvalue order, and the product's lower triangle
    is replaced by the mirror of its upper one, so the result is exactly
    symmetric.
    """
    vals, vecs = np.linalg.eigh(_checked(a, ndims=(2,)))
    vals, q = vals[::-1], vecs[:, ::-1]
    if np.any((vals < 0.0) & (np.abs(vals) > EIG_FLOOR)):
        raise ValueError(
            f"not positive semidefinite within tolerance (min eigenvalue {vals.min():.3e})"
        )
    w = _checked((q * (1.0 / np.sqrt(np.maximum(vals, EIG_FLOOR)))) @ q.T)
    return np.triu(w) + np.triu(w, 1).T
