"""Small dense-matrix helpers: the spectral norm and unitary/contraction
predicates.

Everything here is tolerance-based: singular values may deviate from 1 by
``UNITARY_TOL`` for unitarity, and exceed 1 by as much for contractions.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import UNITARY_TOL


def as_inexact(m) -> np.ndarray:
    """``m`` as a float64 array when its entries are real and as a complex
    one when they are not, so real data keeps real arithmetic."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def matrix_2norm(m) -> float:
    """Spectral norm, with the empty matrix mapped to 0.

    The largest singular value is the square root of the largest
    eigenvalue of the smaller Gram matrix, M^H M or M M^H, whose round-off
    is about eps times that eigenvalue: so the norm is exact to relative
    round-off, from one Hermitian eigensolve of size min(rows, cols) and
    no SVD.  M is first scaled by a power of two that brings its largest
    entry near 1, so the Gram matrix neither overflows nor underflows
    however large or small the entries are; the scaling is exact and is
    undone on the result.  A matrix with a NaN entry has norm NaN, and
    otherwise one with an infinite entry has norm inf.
    """
    m = as_inexact(m)
    if m.size == 0:
        return 0.0
    top = float(np.max(np.abs(m)))
    if top == 0.0 or not math.isfinite(top):
        return top
    # top = f 2^e with f in [1/2, 1); e is clamped so that 2^e and 2^-e are
    # both normal floats, and the largest Gram entries stay normal and finite
    scale = math.ldexp(1.0, min(max(math.frexp(top)[1], -1022), 1023))
    m = m / scale
    gram = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    top_eig = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top_eig, 0.0)) * scale


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
