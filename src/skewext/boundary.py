"""Boundary systems, boundary triplets, and the conversions between them.

A boundary system for a skew-symmetric relation H0 intertwines the standard
symmetric form on Graph(H0*) with the standard unitary form on G1 + G2
through a surjective boundary map F; a boundary triplet does the same with
the abstract Green identity on a single boundary space G.  Both carry their
boundary maps as matrices against one fixed orthonormal basis of
Graph(H0*), so boundary maps are linear by construction, and elements of
G1, G2, G are coordinate vectors against orthonormal bases (making
"unitary between boundary spaces" a plain matrix predicate).  Each system
and triplet is verified once, when it is built, and carries the report;
the conversions and the extension constructors refuse one that failed.

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
        n = self.base.space_dim
        if self.adjoint_graph.ambient_dim != 2 * n:
            raise AmbientMismatch("adjoint graph must live in C^(2n)")
        if self.g1.ambient_dim != n or self.g2.ambient_dim != n:
            raise AmbientMismatch("boundary spaces must live in C^n")
        f = np.asarray(self.f_matrix, dtype=complex)
        expected = (self.g1.dim + self.g2.dim, self.adjoint_graph.dim)
        if f.shape != expected:
            raise AmbientMismatch(f"F must have shape {expected}, got {f.shape}")
        f.setflags(write=False)
        object.__setattr__(self, "f_matrix", f)
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
        n = self.base.space_dim
        if self.adjoint_graph.ambient_dim != 2 * n:
            raise AmbientMismatch("adjoint graph must live in C^(2n)")
        if self.g.ambient_dim != n:
            raise AmbientMismatch("boundary space must live in C^n")
        expected = (self.g.dim, self.adjoint_graph.dim)
        for name in ("gamma1", "gamma2"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != expected:
                raise AmbientMismatch(
                    f"{name} must have shape {expected}, got {m.shape}"
                )
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        object.__setattr__(self, "report", verify_triplet(self, tol))


def _row_rank_full(m: np.ndarray) -> bool:
    rows = m.shape[0]
    return rows == 0 or sub.rank(m) == rows


def _identity_report(lhs: np.ndarray, rhs: np.ndarray, tol: float):
    if lhs.size == 0:
        return True, 0.0
    residual = float(np.max(np.abs(lhs - rhs)))
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return residual <= tol * scale, residual


def verify_system(s: BoundarySystem, tol: float = sub.ORTH_TOL) -> VerificationReport:
    """Check surjectivity of F and the form-intertwining identity.

    Never raises; returns a report with the max residual of
    Omega(u_i, u_j) - omega(F u_i, F u_j) over graph basis pairs.
    """
    n = s.base.space_dim
    omega = omega_matrix(s.adjoint_graph.basis, s.adjoint_graph.basis, n)
    w = (s.f1.conj().T @ s.f1 - s.f2.conj().T @ s.f2).T
    identity_holds, residual = _identity_report(omega, w, tol)
    return VerificationReport(
        surjective=_row_rank_full(s.f_matrix),
        identity_holds=identity_holds,
        residual=residual,
        tol=tol,
    )


def verify_triplet(t: BoundaryTriplet, tol: float = sub.ORTH_TOL) -> VerificationReport:
    """Check stacked surjectivity of (Gamma1, Gamma2) and the Green identity."""
    n = t.base.space_dim
    omega = omega_matrix(t.adjoint_graph.basis, t.adjoint_graph.basis, n)
    green = (t.gamma2.conj().T @ t.gamma1 + t.gamma1.conj().T @ t.gamma2).T
    identity_holds, residual = _identity_report(omega, green, tol)
    return VerificationReport(
        surjective=_row_rank_full(np.vstack([t.gamma1, t.gamma2])),
        identity_holds=identity_holds,
        residual=residual,
        tol=tol,
    )


def require_valid_system(s: BoundarySystem):
    """Raise InvalidSystem unless the system verified when it was built."""
    report = s.report
    if not report.ok:
        raise InvalidSystem(
            f"boundary system fails verification (residual {report.residual:.3e}, "
            f"surjective={report.surjective})"
        )


def require_valid_triplet(t: BoundaryTriplet):
    """Raise InvalidTriplet unless the triplet verified when it was built."""
    report = t.report
    if not report.ok:
        raise InvalidTriplet(
            f"boundary triplet fails verification (residual {report.residual:.3e}, "
            f"surjective={report.surjective})"
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
    if l0.shape != (s.g2.dim, s.g1.dim):
        raise NotUnitary(
            f"L0 must map G1 to G2 coordinates, expected shape "
            f"{(s.g2.dim, s.g1.dim)}, got {l0.shape}"
        )
    if not is_unitary(l0):
        raise NotUnitary("L0 is not unitary within tolerance")
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
