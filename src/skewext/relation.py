"""Linear relations on C^n stored as graph subspaces of C^2n.

A relation generalizes an operator: its graph may be non-densely defined
or multivalued.  A graph element is written ``(x, x')`` with both halves
in C^n; the top n coordinates of the graph subspace hold ``x`` and the
bottom n hold ``x'``.  Everything is read off the blocks (X, X') of the
orthonormal graph basis: the domain ran(X), the kernel X ker(X'), the
multivalued part X' ker(X), the adjoint and deficiency spaces as
complements of block combinations, and the skew-symmetry and
dissipativity predicates as small matrices over the basis.

The inner product convention is fixed globally: conjugate-linear in the
SECOND argument, ``<a, b> = b^H a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import subspace as sub
from .errors import AmbientMismatch, BadDimension, NotSkewSymmetric
from .sampling import random_unitary
from .subspace import Subspace

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Relation:
    """A linear relation on C^n, held as its graph subspace of C^2n."""

    space_dim: int
    graph: Subspace
    # DeficiencyData by tolerance, filled by ``deficiency``
    _deficiency: dict = field(default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        if self.space_dim < 1:
            raise BadDimension("space dimension must be positive")
        if self.graph.ambient_dim != 2 * self.space_dim:
            raise AmbientMismatch(
                f"graph ambient dimension {self.graph.ambient_dim} is not "
                f"2 * {self.space_dim}"
            )

    @property
    def graph_dim(self) -> int:
        return self.graph.dim

    def blocks(self):
        """Top and bottom n-row blocks of the graph basis (X, X')."""
        n = self.space_dim
        return self.graph.basis[:n, :], self.graph.basis[n:, :]

    def __repr__(self):
        return f"Relation(space_dim={self.space_dim}, graph_dim={self.graph_dim})"


@dataclass(frozen=True)
class DeficiencyData:
    """The kernels g1 = ker(1 - T*) and g2 = ker(1 + T*) with their dimensions."""

    g1: Subspace
    g2: Subspace
    indices: tuple

    def __repr__(self):
        return f"DeficiencyData(indices={self.indices})"


def zero_relation(n: int) -> Relation:
    """The zero relation on C^n: graph {0} (empty domain, not the zero map)."""
    return Relation(n, sub.zero(2 * n))


def from_graph(n: int, generators, tol: float = sub.RANK_TOL) -> Relation:
    """Relation with graph spanned by the given 2n-vectors."""
    return Relation(n, sub.span(generators, m=2 * n, tol=tol))


def domain(t: Relation) -> Subspace:
    """{x : (x, x') in graph} = ran(X) for the graph blocks (X, X').

    X is a block of an orthonormal basis, so its rank is cut at the
    absolute threshold ``RANK_TOL``: a top block of pure round-off (a purely
    multivalued relation) has no domain.
    """
    ran_x, _ = sub._block_range_and_null(t.blocks()[0])
    return Subspace(t.space_dim, sub._canonical_phases(ran_x))


def kernel(t: Relation) -> Subspace:
    """{x : (x, 0) in graph} = X ker(X')."""
    x, xp = t.blocks()
    return _image_of_null_space(x, xp)


def mul_part(t: Relation) -> Subspace:
    """{x' : (0, x') in graph} = X' ker(X); trivial exactly when the
    relation is an operator."""
    x, xp = t.blocks()
    return _image_of_null_space(xp, x)


def _image_of_null_space(image: np.ndarray, cut: np.ndarray) -> Subspace:
    """``image`` times an orthonormal basis of ker(``cut``), for the two
    blocks of the graph basis.  Since X^H X + X'^H X' = I, ``image`` is
    isometric on ker(``cut``), so the product is already orthonormal."""
    _, null = sub._block_range_and_null(cut)
    return Subspace(image.shape[0], sub._canonical_phases(image @ null))


def adjoint(t: Relation) -> Relation:
    """The adjoint relation T*.

    Graph(T*) is the orthogonal complement of J Graph(T) where
    J(x, x') = (-x', x); equivalently (y, y') belongs to Graph(T*) iff
    <x', y> = <x, y'> for every (x, x') in Graph(T).
    """
    x, xp = t.blocks()
    return Relation(t.space_dim, sub.complement(np.vstack([-xp, x])))


def negate(t: Relation) -> Relation:
    """The relation -T: second components of the graph flipped in sign."""
    x, xp = t.blocks()
    basis = np.vstack([x, -xp])
    return Relation(t.space_dim, Subspace(2 * t.space_dim, basis))


def omega_matrix(basis: np.ndarray) -> np.ndarray:
    """The Hermitian matrix X'^H X + X^H X' of the standard symmetric form on
    a graph basis (X; X') of C^2n: entry (i, j) is
    Omega(u_j, u_i) = <x_j, x'_i> + <x'_j, x_i> for columns u_i = (x_i, x'_i).
    """
    n = basis.shape[0] // 2
    x, xp = basis[:n, :], basis[n:, :]
    return xp.conj().T @ x + x.conj().T @ xp


def is_skew_symmetric(t: Relation, tol: float = sub.ORTH_TOL) -> bool:
    """Whether the standard symmetric form vanishes on the graph.

    Equivalent to Graph(T) being contained in Graph(-T*).
    """
    m = omega_matrix(t.graph.basis)
    return float(np.max(np.abs(m), initial=0.0)) <= tol


def is_skew_self_adjoint(t: Relation, tol: float = sub.ORTH_TOL) -> bool:
    """Whether T = -T* as graphs.

    Graph(-T*) has dimension 2n - dim Graph(T) and contains Graph(T)
    exactly when T is skew-symmetric, so T = -T* iff the graph is neutral
    of dimension n.
    """
    return t.graph_dim == t.space_dim and is_skew_symmetric(t, tol)


def is_dissipative(t: Relation, tol: float = sub.ORTH_TOL) -> bool:
    """Whether Re <x', x> <= tol for every (x, x') in the graph.

    The supremum over the graph is one Hermitian eigenproblem: with X, X'
    the graph basis blocks, the condition is that the largest eigenvalue
    of X'^H X + X^H X' (``omega_matrix``) is at most 2 tol.
    """
    if t.graph_dim == 0:
        return True
    herm = omega_matrix(t.graph.basis)
    return float(np.max(np.linalg.eigvalsh(herm))) <= 2.0 * tol


def deficiency(t: Relation, tol: float = sub.ORTH_TOL) -> DeficiencyData:
    """Deficiency spaces g1 = ker(1 - T*), g2 = ker(1 + T*) of a
    skew-symmetric relation.

    (y, +-y) lies in Graph(T*) iff <x -+ x', y> = 0 for every (x, x') in
    Graph(T), so g1 = ran(1 - T)^perp and g2 = ran(1 + T)^perp are the
    complements of the column spans of X - X' and X + X' for the graph
    blocks (X, X').  On a skew-symmetric graph with orthonormal basis
    ||(X -+ X')c|| = ||c||, so every singular value at the rank cut is 1.
    Computed once per relation and tolerance; later calls reuse it.
    """
    data = t._deficiency.get(tol)
    if data is None:
        if not is_skew_symmetric(t, tol):
            raise NotSkewSymmetric("deficiency spaces need a skew-symmetric relation")
        x, xp = t.blocks()
        g1 = sub.complement(x - xp)
        g2 = sub.complement(x + xp)
        data = DeficiencyData(g1=g1, g2=g2, indices=(g1.dim, g2.dim))
        t._deficiency[tol] = data
    return data


def extends(t: Relation, s: Relation, tol: float = sub.ORTH_TOL) -> bool:
    """Whether T extends S, i.e. Graph(S) is contained in Graph(T)."""
    if t.space_dim != s.space_dim:
        raise AmbientMismatch("relations live on spaces of different dimensions")
    return sub.contains_subspace(t.graph, s.graph, tol)


def random_skew_symmetric(n: int, k: int, seed: int) -> Relation:
    """Deterministic random skew-symmetric relation with graph dimension k.

    In the rotated coordinates a = (x + x')/sqrt(2), b = (x - x')/sqrt(2)
    the symmetric form becomes <a, c> - <b, d>, so its neutral subspaces
    are exactly graphs of isometries from a part of the a-coordinates into
    the b-coordinates.  The generator draws a random k-dimensional source
    frame and a random isometric image frame, then rotates back.
    """
    if n < 1:
        raise BadDimension("space dimension must be positive")
    if not 0 <= k <= n:
        raise BadDimension(f"graph dimension must satisfy 0 <= k <= n, got {k}")
    if k == 0:
        return zero_relation(n)
    rng = np.random.default_rng(seed)
    a_frame = random_unitary(n, rng)[:, :k]
    b_frame = random_unitary(n, rng)[:, :k]
    # columns (a_i, b_i)/sqrt(2) are orthonormal and neutral for the form
    x = (a_frame + b_frame) / _SQRT2
    xp = (a_frame - b_frame) / _SQRT2
    basis = np.vstack([x, xp]) / _SQRT2
    return Relation(n, Subspace(2 * n, basis))
