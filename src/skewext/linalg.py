"""Small dense-matrix helpers: the spectral norm, the bounds that decide
threshold checks without a factorization, and unitary/contraction
predicates.

Everything here is tolerance-based: singular values may deviate from 1 by
``UNITARY_TOL`` for unitarity, and exceed 1 by as much for contractions.

Every threshold check of the library has one bound here, read off the
entries or one Gram product, that certifies a "yes" with no factorization:
the Frobenius norm for a spectral norm (``frobenius_bound``), the defect
of M M^H from the identity for unitarity and for full row rank
(``coisometry_defect``), and the Gershgorin row bound for the largest
eigenvalue of a Hermitian matrix (``gershgorin_bound``).  Each bound is
padded by a round-off margin of a few ulps per term it sums (``_padded``),
which covers the round-off of the bound and of the exact route, so a
padded bound within a threshold gives the verdict the exact route would
give.  When the bound cannot decide, the check takes its exact route, and
that route is its only fallback.
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import UNITARY_TOL

_EPS = float(np.finfo(np.float64).eps)
#: the round-off margin of a bound, in ulps per term it sums
_ULPS = 8
#: a co-isometry defect at most this gives every sigma^2 of M in [1/2, 3/2],
#: so sigma_min / sigma_max >= 1/sqrt(3), far above any relative rank cut
_ROW_RANK_DEFECT = 0.5


def as_inexact(m) -> np.ndarray:
    """``m`` as a float64 array when its entries are real and as a complex
    one when they are not, so real data keeps real arithmetic."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def _padded(value: float, terms: int, scale: float) -> float:
    """``value``, a bound computed in floating point, raised by ``_ULPS``
    ulps per term of the ``terms`` it sums, in units of ``scale``, the
    magnitude of those terms.  NaN stays NaN, and fails every threshold."""
    return value + _ULPS * terms * _EPS * scale


def _scaled(m: np.ndarray):
    """``m`` divided by the power of two that brings its largest entry near
    1, and that power; or None and the largest modulus when it is 0, inf or
    NaN.  The scaling is exact, and squares of the scaled entries neither
    overflow nor underflow to a loss above round-off."""
    top = float(np.abs(m).max())
    if top == 0.0 or not math.isfinite(top):
        return None, top
    # top = f 2^e with f in [1/2, 1); e is clamped so that 2^e and 2^-e are
    # both normal floats, and the largest Gram entries stay normal and finite
    scale = math.ldexp(1.0, min(max(math.frexp(top)[1], -1022), 1023))
    return m / scale, scale


def matrix_2norm(m) -> float:
    """Spectral norm, with the empty matrix mapped to 0.

    The largest singular value is the square root of the largest
    eigenvalue of the smaller Gram matrix, M^H M or M M^H, whose round-off
    is about eps times that eigenvalue: so the norm is exact to relative
    round-off, from one Hermitian eigensolve of size min(rows, cols) and
    no SVD.  M is first scaled by a power of two that brings its largest
    entry near 1 (``_scaled``), so the Gram matrix neither overflows nor
    underflows however large or small the entries are; the scaling is
    undone on the result.  A matrix with a NaN entry has norm NaN, and
    otherwise one with an infinite entry has norm inf.
    """
    m = as_inexact(m)
    if m.size == 0:
        return 0.0
    m, scale = _scaled(m)
    if m is None:
        return scale
    gram = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    top_eig = float(np.linalg.eigvalsh(gram)[-1])
    return math.sqrt(max(top_eig, 0.0)) * scale


def frobenius_bound(m) -> float:
    """The Frobenius norm, padded, an upper bound of ``matrix_2norm``:
    ||M||_2 <= ||M||_F, from one pass over the entries scaled as
    ``matrix_2norm`` scales them.  0 for the empty and the zero matrix,
    inf or NaN with the entries."""
    m = as_inexact(m)
    if m.size == 0:
        return 0.0
    m, scale = _scaled(m)
    if m is None:
        return scale
    value = math.sqrt(np.vdot(m, m).real)
    return _padded(value, m.size, value) * scale


def norm_at_most(m, bound: float) -> bool:
    """Whether ||M||_2 <= ``bound``: by ``frobenius_bound`` when it is within
    ``bound``, else by ``matrix_2norm``."""
    return frobenius_bound(m) <= bound or matrix_2norm(m) <= bound


def subtract_identity(gram: np.ndarray) -> np.ndarray:
    """The square matrix ``gram`` less the identity, in place: its diagonal,
    every (rows + 1)-th entry of the flat view, lowered by 1."""
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return gram


def coisometry_defect(m) -> float:
    """||M M^H - I||_F, padded.  It bounds |sigma^2 - 1| for every singular
    value sigma of M when M has no more rows than columns, and so
    |sigma - 1| = |sigma^2 - 1| / (sigma + 1) too; from one Gram product,
    with no factorization.  A matrix with more rows than columns has a
    defect of at least 1, since M M^H then has a zero eigenvalue."""
    m = as_inexact(m)
    gram = subtract_identity(m @ m.conj().T)
    value = math.sqrt(np.vdot(gram, gram).real)
    return _padded(value, m.size, 1.0 + value)


def full_row_rank_certified(m) -> bool:
    """Whether ``coisometry_defect`` certifies that M has full row rank at
    any relative rank cut below 1/sqrt(3).  A co-isometry, such as the
    canonical F = [0 | I] and the boundary maps of every triplet built from
    it with a unitary L0, passes; False means undecided."""
    return coisometry_defect(m) <= _ROW_RANK_DEFECT


def gershgorin_bound(h: np.ndarray) -> float:
    """An upper bound of the largest eigenvalue of a nonempty Hermitian
    matrix: the largest Gershgorin row bound h_ii + sum_{j != i} |h_ij|,
    padded in units of the largest absolute row sum, which bounds ||h||_2;
    from one pass over the entries, with no eigensolve."""
    a = np.abs(h)
    rows = a.sum(axis=1)
    value = float((rows + (h.diagonal().real - a.diagonal())).max())
    return _padded(value, h.shape[0], float(rows.max()))


def is_unitary(m) -> bool:
    """Whether a square matrix has all singular values within ``UNITARY_TOL``
    of 1: by ``coisometry_defect`` when it is within ``UNITARY_TOL``, else
    by the singular values of one SVD.  Real input stays real."""
    m = as_inexact(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if m.shape[0] == 0 or coisometry_defect(m) <= UNITARY_TOL:
        return True
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.abs(s - 1.0).max()) <= UNITARY_TOL


def is_contraction(m) -> bool:
    """Whether the spectral norm is at most 1 + ``UNITARY_TOL``."""
    return matrix_2norm(m) <= 1.0 + UNITARY_TOL
