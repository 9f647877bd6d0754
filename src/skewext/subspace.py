"""Numerically robust subspace arithmetic over the complex field.

A subspace of C^m is stored as an m-by-k matrix with orthonormal columns
(``k`` may be 0; the zero subspace is a first-class value).  Rank decisions
on arbitrary matrices use singular values with a relative threshold, well
conditioned at the small ambient dimensions this package works at; a block
of rows of an orthonormal basis has its singular values in [0, 1] and is cut
at the absolute threshold ``RANK_TOL`` instead.  An SVD is taken only
where a rank is part of the answer: every orthogonal complement is of a
matrix of full column rank and is the tail of one complete QR
(``complement``), with no rank decision.  A graph subspace of C^2n
(``_graph``) also holds its Gram matrix and its form Omega, both from the
same two half-size products, so its orthonormality check and Omega cost one
Gram matrix.  Subspaces are compared in one way: the gap metric held
against a tolerance (``distance_at_most``), on the bases directly, without
forming projectors, and by the Frobenius norm of the residual where it can;
containment is ``contains_subspace`` and ``coordinates_in``.  Values are
immutable, compare by identity, and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbientMismatch, EmptyAmbient, InvalidTolerance, NotOrthonormal
from .linalg import norm_at_most, subtract_identity
from .tolerances import ORTH_TOL, RANK_TOL


def numerical_rank(singular_values, tol: float = RANK_TOL) -> int:
    """Count of singular values (in descending order, as ``np.linalg.svd``
    returns them) above ``tol`` times the largest; 0 when there are none."""
    s = np.asarray(singular_values)
    if s.size == 0:
        return 0
    return int((s > tol * s[0]).sum())


def _block_range_and_null(block: np.ndarray):
    """Orthonormal bases of the range and of the null space of a block of
    rows of an orthonormal basis, from one SVD.  The block's singular values
    lie in [0, 1], so the rank cut is absolute: those above ``RANK_TOL``
    count.  A cut relative to the largest would count a block of pure
    round-off as full rank."""
    u, s, vh = np.linalg.svd(block, full_matrices=True)
    r = int((s > RANK_TOL).sum())
    return u[:, :r], vh[r:, :].conj().T


def rank(m: np.ndarray) -> int:
    """Numerical rank of the matrix ``m`` (see ``numerical_rank``)."""
    return numerical_rank(np.linalg.svd(m, compute_uv=False))


def _as_matrix(vectors, m: int):
    """Stack a sequence of vectors of length ``m`` into an m-by-N complex
    matrix."""
    cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if cols:
        lengths = {c.shape[0] for c in cols}
        if len(lengths) > 1:
            raise AmbientMismatch(f"vectors of unequal lengths {sorted(lengths)}")
        if cols[0].shape[0] != m:
            raise AmbientMismatch(
                f"vectors of length {cols[0].shape[0]} in ambient dimension {m}"
            )
        return np.column_stack(cols)
    return np.zeros((m, 0), dtype=complex)


def _identity_deviation(gram: np.ndarray) -> float:
    """The largest modulus of the entries of G - I for a nonempty square
    G = ``gram``, which is lowered by the identity in place
    (``linalg.subtract_identity``).  NaN when an entry is NaN."""
    return np.abs(subtract_identity(gram)).max()


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^m, held as an orthonormal column basis.

    Attributes
    ----------
    ambient_dim : int
        The ambient dimension m (positive).
    basis : ndarray
        Complex m-by-k matrix with orthonormal columns; k is the dimension.

    ``==`` is identity and a subspace hashes by its id: two subspaces are
    compared by ``distance_at_most``.
    """

    ambient_dim: int
    basis: np.ndarray
    # the Gram matrix and the form Omega of a graph basis, given by ``_graph``
    _gram: np.ndarray | None = field(default=None, kw_only=True, repr=False)
    _omega: np.ndarray | None = field(default=None, kw_only=True, repr=False)

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
        # a given Gram matrix is copied, since the check lowers its diagonal
        gram = b.conj().T @ b if self._gram is None else self._gram.copy()
        # written as "not <=" so that a NaN deviation is rejected too
        if gram.size and not _identity_deviation(gram) <= ORTH_TOL:
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


def _canonical_phases(b: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry, the pivot, is real
    positive.

    Kills the phase freedom SVD leaves per basis vector, which keeps
    one-dimensional results (and CLI output) in a predictable orientation.
    The pivot is set to its modulus, so it is exactly real: the product of
    the pivot and its conjugate phase would leave a round-off imaginary part.
    """
    idx, cols = np.abs(b).argmax(axis=0), np.arange(b.shape[1])
    pivots = b[idx, cols]
    moduli = np.abs(pivots)
    rotated = b * (pivots.conj() / moduli)
    rotated[idx, cols] = moduli
    return rotated


def span_matrix(a: np.ndarray, tol: float = RANK_TOL) -> Subspace:
    """Column span of a complex matrix (columns are the spanning vectors).

    The dimension of the result is the numerical rank at relative tolerance
    ``tol``: singular values at or below ``tol`` times the largest are
    discarded.  A value of ``tol`` outside (0, 1), NaN included, raises
    ``InvalidTolerance``.
    """
    b = _span_basis(a, tol)
    return Subspace(b.shape[0], b)


def _span_basis(a: np.ndarray, tol: float) -> np.ndarray:
    """The orthonormal basis of ``span_matrix``: the left singular vectors
    up to the numerical rank, none for a matrix without columns or with only
    zero entries."""
    # written as "not <" so that NaN is rejected too
    if not 0 < tol < 1:
        raise InvalidTolerance(f"rank threshold {tol!r} is not in (0, 1)")
    a = np.asarray(a, dtype=complex)
    if a.shape[1] == 0 or not a.any():
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return _canonical_phases(u[:, : numerical_rank(s, tol)])


def complement(*matrices: np.ndarray) -> list:
    """Orthonormal bases of the orthogonal complements of the column spans
    of m-by-k matrices of one shape and full column rank: the last m - k
    columns of each complete QR, all from one batched QR call, with
    ``_canonical_phases`` applied.  Every complement the library takes is
    this one.

    No rank decision is made; full column rank is the premise, and the
    callers' matrices have it by construction: an orthonormal graph basis
    rotated by J (``relation.adjoint``), X -+ X' on a skew-symmetric graph
    (``relation.deficiency``), both isometries, and (K A - B)^H, whose
    smallest singular value is bounded below by that of the surjective
    boundary maps (``extensions._adjoint_portion``).  For a matrix of lower
    rank the result is not its complement.  Without columns the complement
    is the whole space, whose basis is the identity.
    """
    m, k = matrices[0].shape
    if not k:
        return [np.eye(m, dtype=complex) for _ in matrices]
    # one matrix is viewed as a batch of one; only several are copied
    stacked = matrices[0][None] if len(matrices) == 1 else np.stack(matrices)
    q = np.linalg.qr(stacked, mode="complete")[0]
    return [_canonical_phases(b[:, k:]) for b in q]


def _graph(basis: np.ndarray, forms=None) -> Subspace:
    """The graph subspace of C^2n spanned by the orthonormal columns of
    ``basis`` = (X; X'), held with its Gram matrix and its form
    Omega = X'^H X + X^H X' (``relation.omega_matrix``).

    For A = X + X' and C = X - X' the two come from the same two half-size
    products: A^H A + C^H C = 2 Gram and A^H A - C^H C = 2 Omega, so Omega
    costs no more than the Gram matrix every ``Subspace`` checks, and the
    constructor's check runs on this one.  ``forms``, when given, is the
    pair (Gram, Omega) on these columns known before: principal submatrices
    of the forms of a graph whose basis holds the columns, or the forms of
    the graph whose X' has the other sign, with Omega negated.  The check
    then runs on that Gram matrix.
    """
    gram, omega = _graph_forms(basis) if forms is None else forms
    gram.setflags(write=False)
    omega.setflags(write=False)
    return Subspace(basis.shape[0], basis, _gram=gram, _omega=omega)


def _graph_forms(basis: np.ndarray):
    """The Gram matrix and Omega of ``_graph`` from the two products.  The
    half-size blocks are freed on return, before the constructor's check,
    and the sum and difference are formed in place."""
    b = np.asarray(basis, dtype=complex)
    n = b.shape[0] // 2
    a, c = b[:n] + b[n:], b[:n] - b[n:]
    p, q = a.conj().T @ a, c.conj().T @ c
    gram = p + q
    gram *= 0.5
    p -= q
    p *= 0.5
    return gram, p


def _coordinates(s: Subspace, a: np.ndarray, tol: float):
    """``s.basis^H a``, or None unless every column of ``a`` is within ``tol``
    times its norm of its orthogonal projection onto ``s``."""
    coords = s.basis.conj().T @ a
    residuals = np.linalg.norm(a - s.basis @ coords, axis=0)
    return coords if (residuals <= tol * np.linalg.norm(a, axis=0)).all() else None


def contains_subspace(s: Subspace, t: Subspace, tol: float = ORTH_TOL) -> bool:
    """Whether every basis vector of ``t`` lies in ``s``: each is within
    ``tol`` times its norm of its orthogonal projection onto ``s``."""
    return coordinates_in(s, t, tol) is not None


def coordinates_in(s: Subspace, t: Subspace, tol: float = ORTH_TOL):
    """The coordinates ``s.basis^H t.basis`` of the basis of ``t`` in that
    of ``s``, or None unless ``t`` lies in ``s`` (``contains_subspace``)."""
    _check_same_ambient(s, t)
    return _coordinates(s, t.basis, tol)


def distance_at_most(s: Subspace, t: Subspace, bound: float) -> bool:
    """Whether the gap metric between ``s`` and ``t``, the 2-norm of the
    difference of their orthogonal projectors, is at most ``bound``.  The
    gap is 1.0 when the dimensions differ, and otherwise the sine of the
    largest principal angle: the 2-norm of the part of the basis of ``t``
    orthogonal to ``s``, held against ``bound`` by its Frobenius norm or
    else by its spectral norm (``linalg.norm_at_most``)."""
    residual = _gap_residual(s, t)
    return 1.0 <= bound if residual is None else norm_at_most(residual, bound)


def _gap_residual(s: Subspace, t: Subspace):
    """The part B - A (A^H B) of the basis B of ``t`` orthogonal to the
    basis A of ``s``, or None when the dimensions differ."""
    _check_same_ambient(s, t)
    if s.dim != t.dim:
        return None
    return t.basis - s.basis @ (s.basis.conj().T @ t.basis)


def _check_same_ambient(s: Subspace, t: Subspace):
    if s.ambient_dim != t.ambient_dim:
        raise AmbientMismatch(
            f"ambient dimensions differ: {s.ambient_dim} != {t.ambient_dim}"
        )
