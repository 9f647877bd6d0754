"""Small dense-matrix helpers: unitary/contraction predicates and null spaces.

Everything here is tolerance-based; the thresholds follow the package-wide
defaults (singular-value deviation 1e-8 for unitarity/contraction, relative
rank threshold 1e-10).
"""

from __future__ import annotations

import numpy as np

from .subspace import RANK_TOL, numerical_rank

#: Allowed deviation of singular values from 1 for unitary matrices, and
#: allowed excess above 1 for contractions.
UNITARY_TOL = 1e-8


def matrix_2norm(m) -> float:
    """Spectral norm, with the empty matrix mapped to 0."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """Whether a square matrix has all singular values within ``tol`` of 1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if m.shape[0] == 0:
        return True
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.max(np.abs(s - 1.0))) <= tol


def is_contraction(m, tol: float = UNITARY_TOL) -> bool:
    """Whether the spectral norm is at most 1 + tol."""
    return matrix_2norm(m) <= 1.0 + tol


def null_space(m, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a complex matrix.

    Rank is decided at relative tolerance ``tol``; an empty or zero matrix
    has full kernel.
    """
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0 or not np.any(m):
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[numerical_rank(s, tol) :].conj().T
