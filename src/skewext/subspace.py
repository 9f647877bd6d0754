"""Numerically robust subspace arithmetic over the complex field.

A subspace of C^m is stored as an m-by-k matrix with orthonormal columns
(``k`` may be 0; the zero subspace is a first-class value).  Rank decisions
on arbitrary matrices use singular values with a relative threshold, well
conditioned at the small ambient dimensions this package works at; a block
of rows of an orthonormal basis has its singular values in [0, 1] and is cut
at the absolute threshold ``RANK_TOL`` instead.  Distances compare the bases
directly, without forming projectors.  Values are immutable and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatch, EmptyAmbient, InvalidTolerance, NotOrthonormal
from .linalg import matrix_2norm
from .tolerances import ORTH_TOL, RANK_TOL


def numerical_rank(singular_values, tol: float = RANK_TOL) -> int:
    """Count of singular values (in descending order, as ``np.linalg.svd``
    returns them) above ``tol`` times the largest; 0 when there are none."""
    s = np.asarray(singular_values)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _block_range_and_null(block: np.ndarray):
    """Orthonormal bases of the range and of the null space of a block of
    rows of an orthonormal basis, from one SVD.  The block's singular values
    lie in [0, 1], so the rank cut is absolute: those above ``RANK_TOL``
    count.  A cut relative to the largest would count a block of pure
    round-off as full rank."""
    u, s, vh = np.linalg.svd(block, full_matrices=True)
    r = int(np.sum(s > RANK_TOL))
    return u[:, :r], vh[r:, :].conj().T


def rank(m: np.ndarray) -> int:
    """Numerical rank of the matrix ``m`` (see ``numerical_rank``)."""
    return numerical_rank(np.linalg.svd(m, compute_uv=False))


def _as_matrix(vectors, m=None):
    """Stack a sequence of vectors into an m-by-N complex matrix."""
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if cols:
        lengths = {c.shape[0] for c in cols}
        if len(lengths) > 1:
            raise AmbientMismatch(f"vectors of unequal lengths {sorted(lengths)}")
        m = cols[0].shape[0] if m is None else m
        if cols[0].shape[0] != m:
            raise AmbientMismatch(
                f"vectors of length {cols[0].shape[0]} in ambient dimension {m}"
            )
        return np.column_stack(cols)
    if m is None:
        raise EmptyAmbient("empty span needs an explicit ambient dimension")
    return np.zeros((m, 0), dtype=complex)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^m, held as an orthonormal column basis.

    Attributes
    ----------
    ambient_dim : int
        The ambient dimension m (positive).
    basis : ndarray
        Complex m-by-k matrix with orthonormal columns; k is the dimension.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise EmptyAmbient("ambient dimension must be positive")
        # a copy, so freezing it leaves the caller's array writable
        b = np.array(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise AmbientMismatch(
                f"basis shape {b.shape} does not match ambient dimension "
                f"{self.ambient_dim}"
            )
        object.__setattr__(self, "basis", b)
        b.setflags(write=False)
        gram = b.conj().T @ b
        # written as "not <=" so that a NaN deviation is rejected too
        if gram.size and not np.max(np.abs(gram - np.eye(b.shape[1]))) <= ORTH_TOL:
            raise NotOrthonormal("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def zero(m: int) -> Subspace:
    """The zero subspace {0} of C^m."""
    if m < 1:
        raise EmptyAmbient("ambient dimension must be positive")
    return Subspace(m, np.zeros((m, 0), dtype=complex))


def full(m: int) -> Subspace:
    """All of C^m."""
    if m < 1:
        raise EmptyAmbient("ambient dimension must be positive")
    return Subspace(m, np.eye(m, dtype=complex))


def span(vectors, m=None, tol: float = RANK_TOL) -> Subspace:
    """Closed span of a sequence of complex m-vectors.

    The dimension of the result is the numerical rank at relative
    tolerance ``tol``: singular values at or below ``tol`` times the
    largest singular value are discarded.

    Parameters
    ----------
    vectors : sequence of array_like
        Spanning vectors, all of equal length m >= 1.
    m : int, optional
        Ambient dimension; mandatory when ``vectors`` is empty.
    tol : float
        Relative rank threshold, in (0, 1).
    """
    return span_matrix(_as_matrix(vectors, m), tol)


def _canonical_phases(b: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Kills the phase freedom SVD leaves per basis vector, which keeps
    one-dimensional results (and CLI output) in a predictable orientation.
    """
    idx = np.argmax(np.abs(b), axis=0)
    pivots = b[idx, np.arange(b.shape[1])]
    return b * (pivots.conj() / np.abs(pivots))


def span_matrix(a: np.ndarray, tol: float = RANK_TOL) -> Subspace:
    """Column span of a complex matrix (columns are the spanning vectors).

    ``tol`` is the relative rank threshold of ``span``; a value outside
    (0, 1), NaN included, raises ``InvalidTolerance``.
    """
    # written as "not <" so that NaN is rejected too
    if not 0 < tol < 1:
        raise InvalidTolerance(f"rank threshold {tol!r} is not in (0, 1)")
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    if a.shape[1] == 0 or not np.any(a):
        return zero(m)  # which rejects m == 0
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace(m, _canonical_phases(u[:, : numerical_rank(s, tol)]))


def complement(a: np.ndarray) -> Subspace:
    """Orthogonal complement of the column span of a complex matrix.

    One full SVD: the left singular vectors past the numerical rank at
    relative tolerance ``RANK_TOL``.  A matrix without columns, or with only
    zero entries, has the whole space as its complement (``full`` rejects
    an empty ambient space).
    """
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    if a.shape[1] == 0 or not np.any(a):
        return full(m)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    return Subspace(m, _canonical_phases(u[:, numerical_rank(s) :]))


def _coordinates(s: Subspace, a: np.ndarray, tol: float):
    """``s.basis^H a``, or None unless every column of ``a`` is within ``tol``
    times its norm of its orthogonal projection onto ``s``."""
    coords = s.basis.conj().T @ a
    residuals = np.linalg.norm(a - s.basis @ coords, axis=0)
    return coords if np.all(residuals <= tol * np.linalg.norm(a, axis=0)) else None


def contains(s: Subspace, v, tol: float = ORTH_TOL) -> bool:
    """Whether a vector lies in the subspace.

    True iff the distance from ``v`` to its orthogonal projection onto
    ``s`` is at most ``tol * norm(v)``.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != s.ambient_dim:
        raise AmbientMismatch(
            f"vector of length {v.shape[0]} in ambient dimension {s.ambient_dim}"
        )
    return _coordinates(s, v[:, None], tol) is not None


def contains_subspace(s: Subspace, t: Subspace, tol: float = ORTH_TOL) -> bool:
    """Whether every basis vector of ``t`` lies in ``s`` (see ``contains``)."""
    return coordinates_in(s, t, tol) is not None


def coordinates_in(s: Subspace, t: Subspace, tol: float = ORTH_TOL):
    """The coordinates ``s.basis^H t.basis`` of the basis of ``t`` in that
    of ``s``, or None unless ``t`` lies in ``s`` (see ``contains``)."""
    _check_same_ambient(s, t)
    return _coordinates(s, t.basis, tol)


def equal(s: Subspace, t: Subspace, tol: float = ORTH_TOL) -> bool:
    """Subspace equality by mutual containment of bases."""
    _check_same_ambient(s, t)
    if s.dim != t.dim:
        return False
    return contains_subspace(s, t, tol) and contains_subspace(t, s, tol)


def distance(s: Subspace, t: Subspace) -> float:
    """Gap metric between subspaces: the 2-norm of the difference of the
    orthogonal projectors.  It is 1.0 when the dimensions differ, and
    otherwise the sine of the largest principal angle, the 2-norm of the
    part of the basis of ``t`` orthogonal to ``s``."""
    _check_same_ambient(s, t)
    if s.dim != t.dim:
        return 1.0
    return matrix_2norm(t.basis - s.basis @ (s.basis.conj().T @ t.basis))


def _check_same_ambient(s: Subspace, t: Subspace):
    if s.ambient_dim != t.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {s.ambient_dim} != {t.ambient_dim}"
        )
