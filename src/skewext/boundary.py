"""Boundary systems, boundary triplets, and the conversions between them.

A boundary system for a skew-symmetric relation H0 intertwines the standard
symmetric form on Graph(H0*) with the standard unitary form on G1 + G2
through a surjective boundary map F; a boundary triplet does the same with
the abstract Green identity on a single boundary space G.  Both carry their
boundary maps as matrices against one fixed orthonormal basis of
Graph(H0*), so boundary maps are linear by construction, and elements of
G1, G2, G are coordinate vectors against orthonormal bases (making
"unitary between boundary spaces" a plain matrix predicate).  A triplet is
the system with G1 = G2 and F = (Gamma1 +- Gamma2)/sqrt(2), so both share
one construction check (``_freeze_maps``) and one verifier (``_verify``):
Omega on Graph(H0*), the one its graph subspace holds, against the
pulled-back boundary form, and the row rank of the boundary maps.  Each is
verified once, when it is built, and carries the report; the conversions
and the extension constructors refuse one that failed.

The canonical boundary system exists for every skew-symmetric relation:
its boundary spaces are the deficiency spaces g1 = ker(1 - H0*) and
g2 = ker(1 + H0*), and its basis of Graph(H0*) is the orthogonal
graph-level decomposition

    Graph(H0*) = Graph(-H0)  +  {(x, x) : x in g1}  +  {(x, -x) : x in g2},

the orthonormal bases of the three pieces side by side.  Its boundary map,
sqrt(2) times the g1 and g2 coordinates of the two deficiency components,
is then the closed form F = [0 | I].  The canonical maximal dissipative
extension, Graph(-H0) + {(x, -x) : x in g2}, is two of the three column
blocks, so its Gram matrix and Omega are principal submatrices of those of
Graph(H0*).  The decomposition is computed at the graph level, where it is
orthogonal; for operators it agrees with the usual domain-level direct sum,
and for relations with multivalued parts it is the well-defined variant.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import relation as rel
from . import subspace as sub
from .errors import (
    AmbientMismatch,
    DecompositionFailure,
    DimensionMismatch,
    InvalidSystem,
    InvalidTriplet,
    NotUnitary,
)
from .linalg import as_inexact, full_row_rank_certified, is_unitary
from .relation import Relation
from .subspace import Subspace

_SQRT2 = np.sqrt(2.0)
# the maps are scaled by 1/sqrt(2) as a product, which is how numpy divides
# a complex array by a real scalar, so a real map rounds as its complex copy
_INV_SQRT2 = 1.0 / _SQRT2


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a boundary system or triplet.

    ``residual`` is the largest absolute defect of the defining identity
    over all pairs of graph basis vectors; ``identity_holds`` compares it
    against ``tol`` relative to the largest form entry involved.
    """

    surjective: bool
    identity_holds: bool
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.surjective and self.identity_holds


@dataclass(frozen=True, eq=False)
class BoundarySystem:
    """Boundary system data (g1, g2, F) over a skew-symmetric base relation.

    ``f_matrix`` maps coordinates with respect to the orthonormal basis
    stored in ``adjoint_graph`` (a basis of Graph(base*)) to stacked
    (g1, g2) coordinates; the first ``g1.dim`` rows are the F1 block.
    The system is verified once, at tolerance ``tol``, when it is built;
    ``report`` holds the outcome; the boundary map is made read-only, so
    the report stays valid for the life of the object.  ``==`` is identity,
    as for every library object that holds arrays.
    """

    base: Relation
    adjoint_graph: Subspace
    g1: Subspace
    g2: Subspace
    f_matrix: np.ndarray
    tol: InitVar[float] = sub.ORTH_TOL
    report: VerificationReport = field(init=False)

    def __post_init__(self, tol):
        _freeze_maps(self, (self.g1, self.g2), {"f_matrix": self.g1.dim + self.g2.dim})
        object.__setattr__(self, "report", verify_system(self, tol))

    @cached_property
    def _canonical_extension(self):
        graph, forms = self.adjoint_graph, None
        neg, hat1, hat2 = _canonical_columns(self)
        if graph._gram is not None:
            # the extension's basis is two column blocks of the Graph(H0*)
            # basis, so its forms are principal submatrices of that basis's
            keep = np.ones(graph.dim, dtype=bool)
            keep[slice(*hat1)] = False
            forms = graph._gram[keep][:, keep], graph._omega[keep][:, keep]
        b = graph.basis
        basis = np.concatenate([b[:, slice(*neg)], b[:, slice(*hat2)]], axis=1)
        return Relation(self.base.space_dim, sub._graph(basis, forms))

    @property
    def f1(self) -> np.ndarray:
        return self.f_matrix[: self.g1.dim, :]

    @property
    def f2(self) -> np.ndarray:
        return self.f_matrix[self.g1.dim :, :]


@dataclass(frozen=True, eq=False)
class BoundaryTriplet:
    """Boundary triplet data (g, Gamma1, Gamma2) over a skew-symmetric base.

    Both boundary maps act on coordinates against the orthonormal basis in
    ``adjoint_graph``.  Like a system, the triplet is verified once at
    ``tol`` when it is built, and ``report`` holds the outcome; ``==`` is
    identity.
    """

    base: Relation
    adjoint_graph: Subspace
    g: Subspace
    gamma1: np.ndarray
    gamma2: np.ndarray
    tol: InitVar[float] = sub.ORTH_TOL
    report: VerificationReport = field(init=False)

    def __post_init__(self, tol):
        _freeze_maps(self, (self.g,), {"gamma1": self.g.dim, "gamma2": self.g.dim})
        object.__setattr__(self, "report", verify_triplet(self, tol))


def _freeze_maps(data, spaces, rows: dict):
    """The construction check of a system or triplet ``data``: Graph(H0*)
    in C^2n, each boundary space of ``spaces`` in C^n, and each map named in
    ``rows`` of shape (its row count, dim Graph(H0*)).  Each map is then
    held as a read-only copy, so the caller's array stays writable: float64
    when its entries are real, complex otherwise (``linalg.as_inexact``).
    A real map, such as the canonical F = [0 | I] and the triplets of real
    reference unitaries built from it, keeps its verifier's products and
    its row-rank bound in real arithmetic."""
    n = data.base.space_dim
    if data.adjoint_graph.ambient_dim != 2 * n:
        raise AmbientMismatch("adjoint graph must live in C^(2n)")
    if any(g.ambient_dim != n for g in spaces):
        raise AmbientMismatch("boundary spaces must live in C^n")
    for name, count in rows.items():
        m = np.array(as_inexact(getattr(data, name)))
        expected = (count, data.adjoint_graph.dim)
        if m.shape != expected:
            raise AmbientMismatch(f"{name} must have shape {expected}, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(data, name, m)


def _verify(data, form: np.ndarray, maps: np.ndarray, tol: float):
    """The report of a system or triplet ``data``: the largest entry of
    Omega - ``form`` over the adjoint-graph basis, held against ``tol``
    times max(1, |Omega|, |form|) entrywise, and whether the stacked
    boundary maps ``maps`` have full row rank: certified with no SVD when
    they are near a co-isometry (``linalg.full_row_rank_certified``), as the
    canonical F = [0 | I] and the triplets built from it with a unitary L0
    are, else by their numerical rank.  Omega is the one the adjoint graph
    holds (``relation._omega``).  Never raises."""
    omega = rel._omega(data.adjoint_graph)
    holds, residual = True, 0.0
    if omega.size:
        residual = float(np.abs(omega - form).max())
        scale = max(1.0, float(np.abs(omega).max()), float(np.abs(form).max()))
        holds = residual <= tol * scale
    rows = maps.shape[0]
    return VerificationReport(
        surjective=rows == 0
        or full_row_rank_certified(maps)
        or sub.rank(maps) == rows,
        identity_holds=holds,
        residual=residual,
        tol=tol,
    )


def verify_system(s: BoundarySystem, tol: float = sub.ORTH_TOL) -> VerificationReport:
    """Check surjectivity of F and the form-intertwining identity
    Omega(u, v) = <F1 u, F1 v> - <F2 u, F2 v> on Graph(H0*).  The form is
    (J F)^H F for J = diag(I, -I) on G1 + G2, one product."""
    jf = np.concatenate([s.f1, -s.f2])
    return _verify(s, jf.conj().T @ s.f_matrix, s.f_matrix, tol)


def verify_triplet(t: BoundaryTriplet, tol: float = sub.ORTH_TOL) -> VerificationReport:
    """Check stacked surjectivity of (Gamma1, Gamma2) and the Green identity
    Omega(u, v) = <Gamma1 u, Gamma2 v> + <Gamma2 u, Gamma1 v>."""
    green = t.gamma2.conj().T @ t.gamma1 + t.gamma1.conj().T @ t.gamma2
    return _verify(t, green, np.concatenate([t.gamma1, t.gamma2]), tol)


def require_valid_system(s: BoundarySystem):
    """Raise InvalidSystem unless the system verified when it was built."""
    _require_valid(s, InvalidSystem, "system")


def require_valid_triplet(t: BoundaryTriplet):
    """Raise InvalidTriplet unless the triplet verified when it was built."""
    _require_valid(t, InvalidTriplet, "triplet")


def _require_valid(data, error: type, kind: str):
    report = data.report
    if not report.ok:
        raise error(
            f"boundary {kind} fails verification (residual {report.residual:.3e}, "
            f"surjective={report.surjective})"
        )


def _require_unitary(m: np.ndarray, rows: int, cols: int, name: str):
    """Raise NotUnitary unless ``m`` is a unitary rows x cols matrix."""
    if m.shape != (rows, cols) or not is_unitary(m):
        raise NotUnitary(
            f"{name} must be a unitary {rows}x{cols} matrix in boundary coordinates"
        )


def triplet_to_system(t: BoundaryTriplet) -> BoundarySystem:
    """The boundary system induced by a triplet.

    F stacks (Gamma1 + Gamma2)/sqrt(2) over (Gamma1 - Gamma2)/sqrt(2), with
    both boundary spaces equal to the triplet space.  The system is
    verified at the triplet's tolerance.
    """
    require_valid_triplet(t)
    f = np.concatenate([t.gamma1 + t.gamma2, t.gamma1 - t.gamma2]) * _INV_SQRT2
    return BoundarySystem(
        base=t.base,
        adjoint_graph=t.adjoint_graph,
        g1=t.g,
        g2=t.g,
        f_matrix=f,
        tol=t.report.tol,
    )


def system_to_triplet(s: BoundarySystem, l0) -> BoundaryTriplet:
    """The boundary triplet induced by a system and a unitary L0: G1 -> G2.

    Gamma1 = (F1 + L0^{-1} F2)/sqrt(2) and Gamma2 = (F1 - L0^{-1} F2)/sqrt(2),
    over the boundary space G1, verified at the system's tolerance.
    Requires dim G1 = dim G2; the failure of that requirement is exactly
    how the unequal-deficiency-index case manifests computationally.
    """
    if s.g1.dim != s.g2.dim:
        raise DimensionMismatch(s.g1.dim, s.g2.dim)
    l0 = as_inexact(l0)
    _require_unitary(l0, s.g2.dim, s.g1.dim, "L0")
    require_valid_system(s)
    return _triplet_of(s, l0)


def _triplet_of(s: BoundarySystem, l0: np.ndarray) -> BoundaryTriplet:
    """The triplet of ``system_to_triplet`` for a valid system with equal
    boundary dimensions and an L0 its caller has checked to be unitary."""
    l0_inv_f2 = l0.conj().T @ s.f2
    return BoundaryTriplet(
        base=s.base,
        adjoint_graph=s.adjoint_graph,
        g=s.g1,
        gamma1=(s.f1 + l0_inv_f2) * _INV_SQRT2,
        gamma2=(s.f1 - l0_inv_f2) * _INV_SQRT2,
        tol=s.report.tol,
    )


def _canonical_columns(s: BoundarySystem):
    """The half-open column ranges (start, stop) of the pieces
    G_neg = Graph(-H0), Ghat1 = {(x, x) : x in g1} and
    Ghat2 = {(x, -x) : x in g2} of the canonical decomposition of
    Graph(H0*) in the Graph(H0*) basis of a canonical system ``s``: side by
    side, of widths dim Graph(H0), dim g1 and dim g2."""
    d0 = s.base.graph_dim
    d1 = d0 + s.g1.dim
    return (0, d0), (d0, d1), (d1, s.adjoint_graph.dim)


def _canonical_blocks(s: BoundarySystem):
    """The orthonormal bases of G_neg, Ghat1 and Ghat2 for a canonical
    system ``s``: the column blocks of ``_canonical_columns`` of its
    Graph(H0*) basis."""
    b = s.adjoint_graph.basis
    return tuple(b[:, start:stop] for start, stop in _canonical_columns(s))


def _hat_basis(basis: np.ndarray, sign: float) -> np.ndarray:
    """The orthonormal basis (G; sign G)/sqrt(2) of {(x, sign x) : x in g}
    for the orthonormal columns G = ``basis`` of a space g."""
    return np.concatenate([basis, sign * basis]) / _SQRT2


def canonical_system(h0: Relation, tol: float = sub.ORTH_TOL) -> BoundarySystem:
    """The canonical boundary system of a skew-symmetric relation.

    The boundary spaces come from ``relation.deficiency`` (which also checks
    skew-symmetry).  The basis of Graph(H0*) is the canonical decomposition:
    the orthonormal bases of Graph(-H0), Ghat1 = {(x, x) : x in g1} and
    Ghat2 = {(x, -x) : x in g2} side by side.  On it the boundary map, sqrt(2)
    times the g1 and g2 coordinates of the deficiency components, is
    F = [0 | I].  The one assertion is the gap of that basis to Graph(H0*)
    from the definition of the adjoint (``relation.adjoint_gap_within``): a
    dimension count short of 2n or a gap above ``tol`` raises
    DecompositionFailure.  The graph constructor (``subspace._graph``) then
    checks the joined basis orthonormal, so the pieces are pairwise
    orthogonal, and keeps Omega on it for the verifier.  The system always
    verifies, whether or not the deficiency indices agree; it is verified
    at ``tol``.
    """
    defic = rel.deficiency(h0, tol)
    x, xp = h0.blocks()
    g_neg = np.concatenate([x, -xp])
    ghat1, ghat2 = _hat_basis(defic.g1.basis, 1.0), _hat_basis(defic.g2.basis, -1.0)
    basis = np.concatenate([g_neg, ghat1, ghat2], axis=1)
    if not rel.adjoint_gap_within(h0, basis, tol):
        raise DecompositionFailure("the pieces do not span Graph(H0*) at tolerance")
    k, d = defic.g1.dim + defic.g2.dim, basis.shape[1]
    return BoundarySystem(
        base=h0,
        adjoint_graph=sub._graph(basis),
        g1=defic.g1,
        g2=defic.g2,
        f_matrix=np.eye(k, d, d - k),  # [0 | I]
        tol=tol,
    )
