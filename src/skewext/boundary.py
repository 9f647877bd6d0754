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
Omega on Graph(H0*) against the pulled-back boundary form, and the row rank
of the boundary maps.  Each is verified once, when it is built, and carries
the report; the conversions and the extension constructors refuse one that
failed.

The canonical boundary system exists for every skew-symmetric relation:
its boundary spaces are the deficiency spaces g1 = ker(1 - H0*) and
g2 = ker(1 + H0*), and its boundary map reads off the (scaled) components
of a graph element along the orthogonal graph-level decomposition

    Graph(H0*) = Graph(-H0)  +  {(x, x) : x in g1}  +  {(x, -x) : x in g2}.

The decomposition is computed at the graph level, where it is orthogonal;
for operators it agrees with the usual domain-level direct sum, and for
relations with multivalued parts it is the well-defined variant.
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
from .linalg import is_unitary
from .relation import Relation, omega_matrix
from .subspace import Subspace

_SQRT2 = np.sqrt(2.0)


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


@dataclass(frozen=True)
class BoundarySystem:
    """Boundary system data (g1, g2, F) over a skew-symmetric base relation.

    ``f_matrix`` maps coordinates with respect to the orthonormal basis
    stored in ``adjoint_graph`` (a basis of Graph(base*)) to stacked
    (g1, g2) coordinates; the first ``g1.dim`` rows are the F1 block.
    The system is verified once, at tolerance ``tol``, when it is built;
    ``report`` holds the outcome; the boundary map is made read-only, so
    the report stays valid for the life of the object.
    """

    base: Relation
    adjoint_graph: Subspace
    g1: Subspace
    g2: Subspace
    f_matrix: np.ndarray
    tol: InitVar[float] = sub.ORTH_TOL
    report: VerificationReport = field(init=False, compare=False)

    def __post_init__(self, tol):
        _freeze_maps(self, (self.g1, self.g2), {"f_matrix": self.g1.dim + self.g2.dim})
        object.__setattr__(self, "report", verify_system(self, tol))

    @cached_property
    def _canonical_pieces(self):
        return (
            rel.negate(self.base).graph,
            _hat_space(self.g1, +1.0),
            _hat_space(self.g2, -1.0),
        )

    @property
    def f1(self) -> np.ndarray:
        return self.f_matrix[: self.g1.dim, :]

    @property
    def f2(self) -> np.ndarray:
        return self.f_matrix[self.g1.dim :, :]


@dataclass(frozen=True)
class BoundaryTriplet:
    """Boundary triplet data (g, Gamma1, Gamma2) over a skew-symmetric base.

    Both boundary maps act on coordinates against the orthonormal basis in
    ``adjoint_graph``.  Like a system, the triplet is verified once at
    ``tol`` when it is built, and ``report`` holds the outcome.
    """

    base: Relation
    adjoint_graph: Subspace
    g: Subspace
    gamma1: np.ndarray
    gamma2: np.ndarray
    tol: InitVar[float] = sub.ORTH_TOL
    report: VerificationReport = field(init=False, compare=False)

    def __post_init__(self, tol):
        _freeze_maps(self, (self.g,), {"gamma1": self.g.dim, "gamma2": self.g.dim})
        object.__setattr__(self, "report", verify_triplet(self, tol))


def _freeze_maps(data, spaces, rows: dict):
    """The construction check of a system or triplet ``data``: Graph(H0*)
    in C^2n, each boundary space of ``spaces`` in C^n, and each map named in
    ``rows`` of shape (its row count, dim Graph(H0*)).  Each map is then
    held as a read-only complex copy, so the caller's array stays writable."""
    n = data.base.space_dim
    if data.adjoint_graph.ambient_dim != 2 * n:
        raise AmbientMismatch("adjoint graph must live in C^(2n)")
    if any(g.ambient_dim != n for g in spaces):
        raise AmbientMismatch("boundary spaces must live in C^n")
    for name, count in rows.items():
        m = np.array(getattr(data, name), dtype=complex)
        expected = (count, data.adjoint_graph.dim)
        if m.shape != expected:
            raise AmbientMismatch(f"{name} must have shape {expected}, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(data, name, m)


def _verify(data, form: np.ndarray, maps: np.ndarray, tol: float):
    """The report of a system or triplet ``data``: the largest entry of
    Omega - ``form`` over the adjoint-graph basis, held against ``tol``
    times max(1, |Omega|, |form|) entrywise, and whether the stacked
    boundary maps ``maps`` have full row rank.  Never raises."""
    omega = omega_matrix(data.adjoint_graph.basis)
    holds, residual = True, 0.0
    if omega.size:
        residual = float(np.max(np.abs(omega - form)))
        scale = max(1.0, float(np.max(np.abs(omega))), float(np.max(np.abs(form))))
        holds = residual <= tol * scale
    rows = maps.shape[0]
    return VerificationReport(
        surjective=rows == 0 or sub.rank(maps) == rows,
        identity_holds=holds,
        residual=residual,
        tol=tol,
    )


def verify_system(s: BoundarySystem, tol: float = sub.ORTH_TOL) -> VerificationReport:
    """Check surjectivity of F and the form-intertwining identity
    Omega(u, v) = <F1 u, F1 v> - <F2 u, F2 v> on Graph(H0*)."""
    return _verify(s, s.f1.conj().T @ s.f1 - s.f2.conj().T @ s.f2, s.f_matrix, tol)


def verify_triplet(t: BoundaryTriplet, tol: float = sub.ORTH_TOL) -> VerificationReport:
    """Check stacked surjectivity of (Gamma1, Gamma2) and the Green identity
    Omega(u, v) = <Gamma1 u, Gamma2 v> + <Gamma2 u, Gamma1 v>."""
    green = t.gamma2.conj().T @ t.gamma1 + t.gamma1.conj().T @ t.gamma2
    return _verify(t, green, np.vstack([t.gamma1, t.gamma2]), tol)


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
    f = np.vstack([(t.gamma1 + t.gamma2) / _SQRT2, (t.gamma1 - t.gamma2) / _SQRT2])
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
    l0 = np.asarray(l0, dtype=complex)
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
        gamma1=(s.f1 + l0_inv_f2) / _SQRT2,
        gamma2=(s.f1 - l0_inv_f2) / _SQRT2,
        tol=s.report.tol,
    )


def canonical_pieces(s: BoundarySystem):
    """The pieces (G_neg, Ghat1, Ghat2) of the orthogonal graph-level
    decomposition of Graph(H0*), for a canonical system: G_neg = Graph(-H0),
    Ghat1 = {(x, x) : x in g1} and Ghat2 = {(x, -x) : x in g2}, read off
    its base and boundary spaces without any rank decision.  They are
    built once per system and shared by every later call."""
    return s._canonical_pieces


def _hat_space(g: Subspace, sign: float) -> Subspace:
    b = g.basis
    return Subspace(2 * g.ambient_dim, np.vstack([b, sign * b]) / _SQRT2)


def _pairwise_orthogonal(pieces, tol: float) -> bool:
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            cross = a.basis.conj().T @ b.basis
            if cross.size and float(np.max(np.abs(cross))) > tol:
                return False
    return True


def canonical_system(h0: Relation, tol: float = sub.ORTH_TOL) -> BoundarySystem:
    """The canonical boundary system of a skew-symmetric relation.

    The boundary spaces come from ``relation.deficiency`` (read off the
    graph blocks of H0, which also checks skew-symmetry), and Graph(H0*)
    from ``relation.adjoint``, independently of them.  The boundary map
    returns sqrt(2) times the g1 and g2 coordinates of the two deficiency
    components of a graph element u = (x, x').  The pieces of the canonical
    decomposition are asserted orthonormal, pairwise orthogonal and summing
    to Graph(H0*), so the Ghat_i component of u is the orthogonal projection
    Ghat_i Ghat_i^H u, and its scaled coordinates are the plain inner
    products Ghat_i^H u = g_i^H (x +- x') / sqrt(2).  The resulting system
    always verifies, regardless of whether the deficiency indices agree;
    it is verified at ``tol``.
    """
    defic = rel.deficiency(h0, tol)
    adj = rel.adjoint(h0)
    x, xp = adj.blocks()
    f = np.vstack(
        [defic.g1.basis.conj().T @ (x + xp), defic.g2.basis.conj().T @ (x - xp)]
    ) / _SQRT2
    s = BoundarySystem(
        base=h0,
        adjoint_graph=adj.graph,
        g1=defic.g1,
        g2=defic.g2,
        f_matrix=f,
        tol=tol,
    )

    pieces = canonical_pieces(s)
    dims_ok = sum(p.dim for p in pieces) == adj.graph_dim
    contained = all(sub.contains_subspace(adj.graph, p, tol) for p in pieces)
    if not (dims_ok and contained and _pairwise_orthogonal(pieces, tol)):
        raise DecompositionFailure(
            "graph pieces fail the orthogonal-sum assertion at tolerance"
        )
    return s
