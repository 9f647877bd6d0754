"""Small dense-matrix helpers: the spectral norm and unitary/contraction
predicates.

Everything here is tolerance-based: singular values may deviate from 1 by
``UNITARY_TOL`` for unitarity, and exceed 1 by as much for contractions.
"""

from __future__ import annotations

import numpy as np

from .tolerances import UNITARY_TOL


def matrix_2norm(m) -> float:
    """Spectral norm, with the empty matrix mapped to 0."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def is_unitary(m) -> bool:
    """Whether a square matrix has all singular values within ``UNITARY_TOL`` of 1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if m.shape[0] == 0:
        return True
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.max(np.abs(s - 1.0))) <= UNITARY_TOL


def is_contraction(m) -> bool:
    """Whether the spectral norm is at most 1 + ``UNITARY_TOL``."""
    return matrix_2norm(m) <= 1.0 + UNITARY_TOL
