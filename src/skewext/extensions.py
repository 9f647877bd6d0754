"""Extension parametrizations for skew-symmetric relations.

Every extension here is one boundary condition: the part of Graph(H0*) on
which K A = B, for a pair (A, B) of boundary maps (``_pair``) and a
parameter K.  A boundary system gives (A, B) = (F1, F2); its unitaries
L: G1 -> G2 select the skew-self-adjoint restrictions of H0*
(``system_unitary_extension``).  A triplet gives
(A, B) = (Gamma1 + Gamma2, Gamma1 - Gamma2), and its extensions are the
sign-flipped portions, restrictions of -H0*: unitaries on G select the
skew-self-adjoint extensions of H0 (``triplet_unitary_extension``, the
Gorbachuk condition (L - 1) Gamma1 + (L + 1) Gamma2 = 0) and contractions
the maximal dissipative ones (``extension_from_contraction``), with
unitarity of the contraction equivalent to skew-self-adjointness of the
extension.  Each constructor checks its parameter and builds the graph
through ``_adjoint_portion``; both read-offs (``system_unitary_readoff``,
``boundary_contraction_of``) are the one inverse K = B[h] A[h]^+
(``_readoff``).  ``bridge_check`` verifies the identity connecting the two
unitary families through a reference unitary L0.

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
    _canonical_blocks,
    _require_unitary,
    _triplet_of,
    canonical_system,  # noqa: F401  re-export; perfbench/test_smoke.py traces it
    require_valid_system,
    require_valid_triplet,
    system_to_triplet,
)
from .errors import (
    IllDefined,
    NotContraction,
    NotDissipative,
    NotMaximal,
    NotRestriction,
    NotSkewSelfAdjoint,
    ReadoffSingular,
)
from .linalg import is_contraction, is_unitary, matrix_2norm
from .relation import Relation


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


def _pair(data):
    """The boundary maps (A, B) of a system or triplet ``data`` whose
    condition K A = B selects an extension, and whether the extension is
    the negated portion of Graph(H0*): (F1, F2) and no for a system;
    (Gamma1 + Gamma2, Gamma1 - Gamma2) and yes for a triplet, whose
    extensions act as -H0*, and where K = L turns the classical condition
    (L - 1) Gamma1 + (L + 1) Gamma2 = 0 into K A = B."""
    if isinstance(data, BoundarySystem):
        return data.f1, data.f2, False
    return data.gamma1 + data.gamma2, data.gamma1 - data.gamma2, True


def _adjoint_portion(data, k: np.ndarray) -> Relation:
    """The extension that K selects for a system or triplet ``data``: the
    part of Graph(H0*) on which K A = B (``_pair``), negated for a triplet.
    Every extension constructor builds its graph here.

    ker(K A - B) is ran((K A - B)^H)^perp, and the adjoint-graph basis
    times that orthonormal kernel basis is already an orthonormal graph
    basis.
    """
    a, b, negated = _pair(data)
    kernel = sub.complement((k @ a - b).conj().T)
    graph = data.adjoint_graph.basis @ kernel.basis
    n = data.base.space_dim
    portion = Relation(n, sub.Subspace(2 * n, graph))
    return rel.negate(portion) if negated else portion


def _readoff(data, h: Relation, singular: type, premise: str):
    """The K with K A = B on the portion of Graph(H0*) that H selects, the
    inverse of ``_adjoint_portion``: K = B[h] A[h]^+ from the boundary
    images A[h], B[h] of the portion, returned with them.  Raises
    NotRestriction unless the portion lies in Graph(H0*), and the caller's
    ``singular`` error unless A[h] spans its boundary space.
    """
    a, b, negated = _pair(data)
    graph = (rel.negate(h) if negated else h).graph
    coords = sub.coordinates_in(data.adjoint_graph, graph, data.report.tol)
    if coords is None:
        raise NotRestriction(
            f"{'negated ' if negated else ''}relation is not a restriction "
            "of the adjoint"
        )
    a, b = a @ coords, b @ coords
    # one SVD: the rank decision, then A^+ = V S^-1 U^H at full row rank
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    if sub.numerical_rank(sv) < a.shape[0]:
        raise singular(premise)
    return b @ (vh.conj().T / sv) @ u.conj().T, a, b


def system_unitary_extension(s: BoundarySystem, l) -> Relation:
    """Skew-self-adjoint restriction of H0* selected by a unitary L: G1 -> G2.

    The graph is the portion of Graph(H0*) on which L F1 = F2 holds,
    computed as the kernel of L F1 - F2 in graph coordinates.
    """
    require_valid_system(s)
    l = np.asarray(l, dtype=complex)
    _require_unitary(l, s.g2.dim, s.g1.dim, "L")
    return _adjoint_portion(s, l)


def system_unitary_readoff(s: BoundarySystem, h: Relation):
    """Recover the unitary L: G1 -> G2 with L F1 = F2 on Graph(H).

    Inverts ``system_unitary_extension``: H must be a skew-self-adjoint
    restriction of H0*.  The solve is a least-squares fit over the graph
    basis; a rank-deficient image F1[Graph(H)] signals a violated
    bijection premise and raises ReadoffSingular.
    """
    require_valid_system(s)
    if not rel.is_skew_self_adjoint(h, s.report.tol):
        raise NotSkewSelfAdjoint("read-off needs a skew-self-adjoint relation")
    premise = (
        "F1 image of the graph is rank-deficient; input violates the "
        "bijection premise"
    )
    return _readoff(s, h, ReadoffSingular, premise)[0]


def triplet_unitary_extension(t: BoundaryTriplet, l) -> Relation:
    """Skew-self-adjoint extension of H0 selected by a unitary L on G.

    The defining boundary condition (L - 1) Gamma1 + (L + 1) Gamma2 = 0 is
    L (Gamma1 + Gamma2) = Gamma1 - Gamma2, the contraction condition of
    ``extension_from_contraction`` at K = L; the portion of Graph(H0*) it
    selects is sign-flipped, since the extension acts as -H0* on its domain.
    """
    require_valid_triplet(t)
    l = np.asarray(l, dtype=complex)
    _require_unitary(l, t.g.dim, t.g.dim, "L")
    return _adjoint_portion(t, l)


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
    premise = "boundary sums do not span G; maximality premise violated"
    kmat, plus, minus = _readoff(t, h, IllDefined, premise)
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
    return _adjoint_portion(t, k)


def unitarity_equivalence_check(t: BoundaryTriplet, h: Relation, kmat) -> bool:
    """Whether skew-self-adjointness of H, unitarity of its boundary
    contraction ``kmat``, and the vanishing of
    <Gamma1 u, Gamma2 v> + <Gamma2 u, Gamma1 v> on the H-portion all hold or
    all fail together.  ``kmat`` is ``boundary_contraction_of(t, h)``, read
    off once by the caller."""
    tol = t.report.tol
    sksa = rel.is_skew_self_adjoint(h, tol)
    unitary = is_unitary(kmat)
    # boundary_contraction_of has checked that the portion lies in Graph(H0*)
    coords = t.adjoint_graph.basis.conj().T @ rel.negate(h).graph.basis
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
    the triplet carries from its construction.  The equal-dimension system
    condition uses neither the boundary spaces nor the deficiency solver:
    by Sylvester's law the inertia of the form Omega on Graph(H0*) is
    (k1, k2) plus a null part of dimension dim Graph(H0), so it compares the
    counts of eigenvalues of ``omega_matrix`` above ``s.report.tol`` and
    below its negative, on a Graph(H0*) basis of its own from
    ``relation.adjoint`` (the system's basis is built from g1 and g2).
    """
    indices = rel.deficiency(s.base, s.report.tol).indices
    k1, k2 = s.g1.dim, s.g2.dim

    has_sksa = False
    triplet_ok = False
    if k1 == k2:
        require_valid_system(s)
        eye = np.eye(k2, k1, dtype=complex)
        extension = _adjoint_portion(s, eye)
        has_sksa = rel.is_skew_self_adjoint(extension, s.report.tol)
        triplet_ok = _triplet_of(s, eye).report.ok

    omega = np.linalg.eigvalsh(rel.omega_matrix(rel.adjoint(s.base).graph.basis))
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
    so their orthonormal bases side by side, two column blocks of the
    system's Graph(H0*) basis, are a basis of the sum.  It is built once
    per system, on first use, and every later call returns the
    same object.
    """
    return s._canonical_extension


def adjoint_formula_check(s: BoundarySystem) -> bool:
    """Whether the adjoint of the canonical extension equals the sign-flipped
    sum of Graph(-H0) and the g1 deficiency piece, for the base of a
    canonical system (``canonical_system``).

    Both pieces are orthogonal (g1 is ran(1 - H0)^perp), so the sum is their
    bases side by side, and flipping the sign of its second components
    gives an orthonormal basis of the formula graph.  That graph is held
    against Graph(H*) through the definition of the adjoint
    (``relation.adjoint_gap``, the check ``canonical_system`` also makes):
    it passes when the dimensions add to 2n and the formula graph is
    orthogonal to J Graph(H) within ``s.report.tol``.  Neither Graph(H*)
    nor any complement is computed.
    """
    g_neg, ghat1, _ = _canonical_blocks(s)
    n = s.base.space_dim
    summed = np.hstack([g_neg, ghat1])
    formula = np.vstack([summed[:n, :], -summed[n:, :]])
    return rel.adjoint_gap(canonical_max_dissipative(s), formula) <= s.report.tol
