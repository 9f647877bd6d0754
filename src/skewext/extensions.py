"""Extension parametrizations for skew-symmetric relations.

Two classical bijections are implemented side by side and bridged:

* ``system_unitary_extension`` builds the skew-self-adjoint restrictions of H0*
  from unitaries L: G1 -> G2 using a boundary system (the extensions live
  INSIDE Graph(H0*)).
* ``triplet_unitary_extension`` builds the skew-self-adjoint extensions of H0
  from unitaries on G using a boundary triplet (the extensions are
  restrictions of -H0*, so their graphs are sign-flipped portions of
  Graph(H0*)).

The two families sit on opposite sides of the sign involution H -> -H;
``bridge_check`` verifies the identity connecting them through a reference
unitary L0.  Maximal dissipative extensions are parametrized by
contractions on G via the boundary-value quotient map
(``boundary_contraction_of`` / ``extension_from_contraction``), with
unitarity of the contraction equivalent to skew-self-adjointness of the
extension.

Checks on a boundary system or triplet run at the tolerance it was verified
at (``report.tol``); relation-level predicates take theirs as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import relation as rel
from . import subspace as sub
from .boundary import (
    BoundarySystem,
    BoundaryTriplet,
    _require_unitary,
    _triplet_of,
    canonical_pieces,
    canonical_system,  # noqa: F401  re-export; perfbench/test_smoke.py traces it
    require_valid_system,
    require_valid_triplet,
    system_to_triplet,
)
from .errors import (
    IllDefined,
    InvalidParameter,
    NotContraction,
    NotDissipative,
    NotMaximal,
    NotRestriction,
    NotSkewSelfAdjoint,
    NotUnitary,
    ReadoffSingular,
)
from .linalg import is_contraction, is_unitary, matrix_2norm
from .relation import Relation

PARAM_KINDS = ("unitary_A", "unitary_B", "contraction")


@dataclass(frozen=True)
class ExtensionParam:
    """A parametrizing matrix in orthonormal boundary-space coordinates.

    ``unitary_A`` maps G1 to G2 coordinates, ``unitary_B`` acts on G, and
    ``contraction`` acts on G with spectral norm at most 1.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise InvalidParameter(
                f"kind must be one of {PARAM_KINDS}, got {self.kind!r}"
            )
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise InvalidParameter("parameter matrix must be two-dimensional")
        object.__setattr__(self, "matrix", m)
        if self.kind in ("unitary_A", "unitary_B") and not is_unitary(m):
            raise NotUnitary(f"{self.kind} parameter is not unitary within tolerance")
        if self.kind == "contraction" and not is_contraction(m):
            raise NotContraction("contraction parameter has norm above 1")


@dataclass(frozen=True)
class ExistenceReport:
    """The four equivalent existence conditions, evaluated independently."""

    indices: tuple
    equal_indices: bool
    has_sksa_extension: bool
    triplet_constructible: bool
    system_equal_dims: bool

    @property
    def booleans(self):
        return (
            self.equal_indices,
            self.has_sksa_extension,
            self.triplet_constructible,
            self.system_equal_dims,
        )

    @property
    def agree(self) -> bool:
        return len(set(self.booleans)) == 1


def _adjoint_portion(data, condition: np.ndarray) -> Relation:
    """The relation whose graph is the part of Graph(H0*) on which a boundary
    condition M (a matrix on graph coordinates) vanishes, for a boundary
    system or triplet ``data``.

    ker(M) is ran(M^H)^perp, and the adjoint-graph basis times that
    orthonormal kernel basis is already an orthonormal graph basis.
    """
    kernel = sub.complement(condition.conj().T)
    graph = data.adjoint_graph.basis @ kernel.basis
    return Relation(data.base.space_dim, sub.Subspace(2 * data.base.space_dim, graph))


def system_unitary_extension(s: BoundarySystem, l) -> Relation:
    """Skew-self-adjoint restriction of H0* selected by a unitary L: G1 -> G2.

    The graph is the portion of Graph(H0*) on which L F1 = F2 holds,
    computed as the kernel of L F1 - F2 in graph coordinates.
    """
    require_valid_system(s)
    l = np.asarray(l, dtype=complex)
    _require_unitary(l, s.g2.dim, s.g1.dim, "L")
    return _unitary_restriction(s, l)


def _unitary_restriction(s: BoundarySystem, l: np.ndarray) -> Relation:
    """The relation of ``system_unitary_extension`` for a valid system and
    an L its caller has checked to be unitary."""
    return _adjoint_portion(s, l @ s.f1 - s.f2)


def system_unitary_readoff(s: BoundarySystem, h: Relation):
    """Recover the unitary L: G1 -> G2 with L F1 = F2 on Graph(H).

    Inverts ``system_unitary_extension``: H must be a skew-self-adjoint
    restriction of H0*.  The solve is a least-squares fit over the graph
    basis; a rank-deficient image F1[Graph(H)] signals a violated
    bijection premise and raises ReadoffSingular.
    """
    require_valid_system(s)
    tol = s.report.tol
    if not rel.is_skew_self_adjoint(h, tol):
        raise NotSkewSelfAdjoint("read-off needs a skew-self-adjoint relation")
    if not sub.contains_subspace(s.adjoint_graph, h.graph, tol):
        raise NotRestriction("relation is not a restriction of the adjoint")
    coords = s.adjoint_graph.basis.conj().T @ h.graph.basis
    image1 = s.f1 @ coords
    image2 = s.f2 @ coords
    k1 = s.g1.dim
    if k1 and sub.rank(image1) < k1:
        raise ReadoffSingular(
            "F1 image of the graph is rank-deficient; input violates the "
            "bijection premise"
        )
    return image2 @ np.linalg.pinv(image1)


def triplet_unitary_extension(t: BoundaryTriplet, l) -> Relation:
    """Skew-self-adjoint extension of H0 selected by a unitary L on G.

    The defining boundary condition (L - 1) Gamma1 + (L + 1) Gamma2 = 0 is
    solved inside Graph(H0*) and the selected portion is sign-flipped,
    since the extension acts as -H0* on its domain.
    """
    require_valid_triplet(t)
    l = np.asarray(l, dtype=complex)
    k = t.g.dim
    _require_unitary(l, k, k, "L")
    eye = np.eye(k, dtype=complex)
    condition = (l - eye) @ t.gamma1 + (l + eye) @ t.gamma2
    return rel.negate(_adjoint_portion(t, condition))


def bridge_check(s: BoundarySystem, l0, l) -> bool:
    """Whether the system-side extension of L equals the negated
    triplet-side extension of L0^{-1} L.

    Builds both sides of the bridge identity explicitly and compares the
    graphs within the system's tolerance.
    """
    l0 = np.asarray(l0, dtype=complex)
    l = np.asarray(l, dtype=complex)
    lhs = system_unitary_extension(s, l)
    triplet = system_to_triplet(s, l0)
    rhs = rel.negate(triplet_unitary_extension(triplet, l0.conj().T @ l))
    return sub.distance(lhs.graph, rhs.graph) <= s.report.tol


def _portion_coords(t: BoundaryTriplet, h: Relation) -> np.ndarray:
    """Coordinates, in the adjoint-graph basis, of the sign-flipped graph of H."""
    flipped = rel.negate(h)
    if not sub.contains_subspace(t.adjoint_graph, flipped.graph, t.report.tol):
        raise NotRestriction(
            "negated relation is not a restriction of the adjoint"
        )
    return t.adjoint_graph.basis.conj().T @ flipped.graph.basis


def _range_of_one_minus(h: Relation) -> int:
    x, xp = h.blocks()
    return sub.rank(x - xp)


def is_maximal_dissipative(h: Relation, tol: float = sub.ORTH_TOL) -> bool:
    """Dissipative with ran(1 - H) = C^n (the range condition for maximality)."""
    return rel.is_dissipative(h, tol) and _range_of_one_minus(h) == h.space_dim


def boundary_contraction_of(t: BoundaryTriplet, h: Relation) -> np.ndarray:
    """The contraction K on G with K(Gamma1 + Gamma2) = Gamma1 - Gamma2 on H.

    H must be a maximal dissipative extension of the base whose negation
    restricts H0*.  Maximality makes the sums Gamma1 + Gamma2 of boundary
    values cover all of G; if they do not, IllDefined is raised.
    """
    require_valid_triplet(t)
    tol = t.report.tol
    if not rel.is_dissipative(h, tol):
        raise NotDissipative("relation is not dissipative")
    if _range_of_one_minus(h) != h.space_dim:
        raise NotMaximal("range condition fails: ran(1 - H) is a proper subspace")
    coords = _portion_coords(t, h)
    plus = (t.gamma1 + t.gamma2) @ coords
    minus = (t.gamma1 - t.gamma2) @ coords
    k = t.g.dim
    if k and sub.rank(plus) < k:
        raise IllDefined("boundary sums do not span G; maximality premise violated")
    kmat = minus @ np.linalg.pinv(plus)
    if matrix_2norm(kmat @ plus - minus) > tol * max(1.0, matrix_2norm(minus)):
        raise IllDefined("boundary map is not single-valued on G")
    return kmat


def extension_from_contraction(t: BoundaryTriplet, k) -> Relation:
    """Maximal dissipative extension selected by a contraction K on G.

    The graph is the sign-flipped portion of Graph(H0*) on which
    K(Gamma1 + Gamma2) = Gamma1 - Gamma2 holds.
    """
    require_valid_triplet(t)
    k = np.asarray(k, dtype=complex)
    dim = t.g.dim
    if k.shape != (dim, dim) or not is_contraction(k):
        raise NotContraction("parameter is not a contraction on G")
    condition = k @ (t.gamma1 + t.gamma2) - (t.gamma1 - t.gamma2)
    return rel.negate(_adjoint_portion(t, condition))


def unitarity_equivalence_check(t: BoundaryTriplet, h: Relation) -> bool:
    """Whether skew-self-adjointness of H, unitarity of its boundary
    contraction, and the vanishing of <Gamma1 u, Gamma2 v> + <Gamma2 u, Gamma1 v>
    on the H-portion all hold or all fail together."""
    tol = t.report.tol
    kmat = boundary_contraction_of(t, h)
    sksa = rel.is_skew_self_adjoint(h, tol)
    unitary = is_unitary(kmat)
    coords = _portion_coords(t, h)
    g1c = t.gamma1 @ coords
    g2c = t.gamma2 @ coords
    pairing = g2c.conj().T @ g1c + g1c.conj().T @ g2c
    vanishes = pairing.size == 0 or float(np.max(np.abs(pairing))) <= tol * max(
        1.0, float(np.max(np.abs(g1c))) if g1c.size else 1.0
    )
    return (sksa == unitary) and (sksa == vanishes)


def existence_report(s: BoundarySystem) -> ExistenceReport:
    """Evaluate the four equivalent existence conditions for skew-self-adjoint
    extensions, each by its own computation path.

    ``s`` is the canonical system of the relation (``canonical_system``), so
    its boundary spaces are the deficiency spaces.  The deficiency indices
    are read off ``relation.deficiency`` of the base; the extension
    condition is checked constructively by building one extension from the
    basis-matching unitary I on the system; the triplet condition by
    converting the system with L0 = I and reading the verification report
    the triplet carries from its construction.  I is checked to be unitary
    once, for both constructions.  The equal-dimension
    system condition uses neither the boundary spaces nor the deficiency
    solver: by Sylvester's law the inertia of the form Omega on Graph(H0*)
    is (k1, k2) plus a null part of dimension dim Graph(H0), so it compares
    the counts of eigenvalues of ``omega_matrix`` on the adjoint-graph basis
    above ``s.report.tol`` and below its negative.
    """
    indices = rel.deficiency(s.base, s.report.tol).indices
    k1, k2 = s.g1.dim, s.g2.dim

    has_sksa = False
    triplet_ok = False
    if k1 == k2:
        require_valid_system(s)
        eye = np.eye(k2, k1, dtype=complex)
        # the one unitarity check of L = L0 = I, shared by both constructions
        _require_unitary(eye, k2, k1, "L")
        extension = _unitary_restriction(s, eye)
        has_sksa = rel.is_skew_self_adjoint(extension, s.report.tol)
        triplet_ok = _triplet_of(s, eye).report.ok

    omega = np.linalg.eigvalsh(rel.omega_matrix(s.adjoint_graph.basis))
    positive = int(np.count_nonzero(omega > s.report.tol))
    negative = int(np.count_nonzero(omega < -s.report.tol))

    return ExistenceReport(
        indices=indices,
        equal_indices=indices[0] == indices[1],
        has_sksa_extension=has_sksa,
        triplet_constructible=triplet_ok,
        system_equal_dims=positive == negative,
    )


def canonical_max_dissipative(s: BoundarySystem) -> Relation:
    """The canonical maximal dissipative extension of the base of a canonical
    system (``canonical_system``).

    Its graph is the orthogonal sum of Graph(-H0) and the g2 deficiency
    piece {(x, -x)}; it always exists, also when no skew-self-adjoint
    extension does.  The two pieces are orthogonal (g2 is ran(1 + H0)^perp),
    so their orthonormal bases side by side are a basis of the sum.
    """
    g_neg, _, ghat2 = canonical_pieces(s)
    graph = sub.Subspace(g_neg.ambient_dim, np.hstack([g_neg.basis, ghat2.basis]))
    return Relation(s.base.space_dim, graph)


def adjoint_formula_check(s: BoundarySystem) -> bool:
    """Whether the adjoint of the canonical extension equals the sign-flipped
    sum of Graph(-H0) and the g1 deficiency piece, for the base of a
    canonical system (``canonical_system``).  Both pieces are orthogonal
    (g1 is ran(1 - H0)^perp), so the sum is their bases side by side."""
    g_neg, ghat1, _ = canonical_pieces(s)
    lhs = rel.adjoint(canonical_max_dissipative(s))
    rhs_graph = sub.Subspace(g_neg.ambient_dim, np.hstack([g_neg.basis, ghat1.basis]))
    rhs = rel.negate(Relation(s.base.space_dim, rhs_graph))
    return sub.distance(lhs.graph, rhs.graph) <= s.report.tol
