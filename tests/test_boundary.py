import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import boundary as bd
from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import (
    AmbientMismatch,
    DecompositionFailure,
    DimensionMismatch,
    InvalidTriplet,
    NotSkewSymmetric,
    NotUnitary,
)

import reference as ref

SQRT2 = np.sqrt(2.0)

relation_params = st.tuples(
    st.integers(1, 5), st.fractions(0, 1), st.integers(0, 10**6)
).map(lambda t: (t[0], round(float(t[1]) * t[0]), t[2]))


def zero_relation_triplet():
    """The hand-built triplet for the zero relation on C^1.

    Graph(H0*) is all of C^2 with basis e1, e2, so Gamma1 = x and
    Gamma2 = x' are the two coordinate read-offs.
    """
    h0 = rel.zero_relation(1)
    return bd.BoundaryTriplet(
        base=h0,
        adjoint_graph=rel.adjoint(h0).graph,
        g=sub.full(1),
        gamma1=np.array([[1.0, 0.0]], dtype=complex),
        gamma2=np.array([[0.0, 1.0]], dtype=complex),
    )


def test_forms_on_vectors():
    # Omega((x,x'),(y,y')) = <x,y'> + <x',y>: entry [1, 0] on the columns [u v]
    def omega(u, v):
        return rel.omega_matrix(np.array([u, v]).T)[1, 0]

    assert omega((1, 0), (0, 1)) == pytest.approx(1)
    assert omega((1, 1j), (1, 1j)) == pytest.approx(0)


def test_canonical_system_of_zero_relation():
    s = bd.canonical_system(rel.zero_relation(1))
    report = bd.verify_system(s)
    assert report.surjective and report.identity_holds
    assert report.residual <= 1e-12
    # boundary map in the canonical bases: (x, x') -> ((x+x')/sqrt2, (x-x')/sqrt2)
    expected = np.array([[1, 1], [1, -1]]) / SQRT2
    assert np.allclose(s.f_matrix, expected, atol=1e-12)


def test_system_keeps_the_callers_array_writable():
    s = bd.canonical_system(rel.zero_relation(1))
    f = np.array(s.f_matrix)  # complex, so a plain asarray would not copy
    built = bd.BoundarySystem(
        base=s.base, adjoint_graph=s.adjoint_graph, g1=s.g1, g2=s.g2, f_matrix=f
    )
    assert f.flags.writeable
    assert not built.f_matrix.flags.writeable
    f[0, 0] = 7.0
    assert np.array_equal(built.f_matrix, s.f_matrix)


def test_verify_system_detects_scaled_f():
    s = bd.canonical_system(rel.zero_relation(1))
    bad = bd.BoundarySystem(
        base=s.base,
        adjoint_graph=s.adjoint_graph,
        g1=s.g1,
        g2=s.g2,
        f_matrix=2.0 * s.f_matrix,
    )
    report = bd.verify_system(bad)
    assert not report.identity_holds


def test_verify_system_detects_rank_deficient_f():
    s = bd.canonical_system(rel.zero_relation(1))
    f = s.f_matrix.copy()
    f[1, :] = 0.0  # zero F2 block against a nontrivial g2
    bad = bd.BoundarySystem(
        base=s.base, adjoint_graph=s.adjoint_graph, g1=s.g1, g2=s.g2, f_matrix=f
    )
    assert not bd.verify_system(bad).surjective


def test_verify_triplet_zero_relation():
    report = bd.verify_triplet(zero_relation_triplet())
    assert report.surjective and report.identity_holds
    assert report.residual <= 1e-12


def test_verify_triplet_zero_gamma2_fails_surjectivity():
    t = zero_relation_triplet()
    bad = bd.BoundaryTriplet(
        base=t.base,
        adjoint_graph=t.adjoint_graph,
        g=t.g,
        gamma1=t.gamma1,
        gamma2=np.zeros_like(t.gamma2),
    )
    assert not bd.verify_triplet(bad).surjective


def test_verify_triplet_swap_is_still_valid():
    t = zero_relation_triplet()
    swapped = bd.BoundaryTriplet(
        base=t.base,
        adjoint_graph=t.adjoint_graph,
        g=t.g,
        gamma1=t.gamma2,
        gamma2=t.gamma1,
    )
    assert bd.verify_triplet(swapped).ok


def test_triplet_to_system_boundary_map_values():
    s = bd.triplet_to_system(zero_relation_triplet())
    assert bd.verify_system(s).ok
    # graph element (1, 0) is the first basis vector of Graph(H0*)
    assert np.allclose(s.f_matrix[:, 0], [1 / SQRT2, 1 / SQRT2])
    # graph element (1, 1) maps to (sqrt2, 0)
    image = s.f_matrix @ np.array([1.0, 1.0])
    assert np.allclose(image, [SQRT2, 0.0])


def test_triplet_to_system_rejects_invalid():
    t = zero_relation_triplet()
    bad = bd.BoundaryTriplet(
        base=t.base,
        adjoint_graph=t.adjoint_graph,
        g=t.g,
        gamma1=t.gamma1,
        gamma2=np.zeros_like(t.gamma2),
    )
    with pytest.raises(InvalidTriplet):
        bd.triplet_to_system(bad)


def test_system_to_triplet_of_canonical_zero_relation():
    s = bd.canonical_system(rel.zero_relation(1))
    t = bd.system_to_triplet(s, np.eye(1))
    assert bd.verify_triplet(t).ok
    assert np.allclose(t.gamma1, [[1.0, 0.0]], atol=1e-12)
    assert np.allclose(t.gamma2, [[0.0, 1.0]], atol=1e-12)


def test_system_to_triplet_roundtrip_is_identity():
    t = zero_relation_triplet()
    s = bd.triplet_to_system(t)
    back = bd.system_to_triplet(s, np.eye(1))
    assert np.allclose(back.gamma1, t.gamma1, atol=1e-12)
    assert np.allclose(back.gamma2, t.gamma2, atol=1e-12)


def test_system_to_triplet_dimension_mismatch():
    s = bd.canonical_system(rel.zero_relation(1))
    lopsided = bd.BoundarySystem(
        base=s.base,
        adjoint_graph=s.adjoint_graph,
        g1=s.g1,
        g2=sub.zero(1),
        f_matrix=s.f_matrix[:1, :],
    )
    with pytest.raises(DimensionMismatch) as info:
        bd.system_to_triplet(lopsided, np.zeros((0, 1)))
    assert (info.value.g1_dim, info.value.g2_dim) == (1, 0)


def test_system_to_triplet_rejects_non_unitary():
    s = bd.canonical_system(rel.zero_relation(1))
    with pytest.raises(NotUnitary):
        bd.system_to_triplet(s, np.array([[2.0]]))
    # a unitary of the wrong shape is refused by the same check
    with pytest.raises(NotUnitary):
        bd.system_to_triplet(s, np.eye(2))


@pytest.mark.parametrize(
    "kind, name",
    [("system", name) for name in ("adjoint_graph", "g1", "g2", "f_matrix")]
    + [("triplet", name) for name in ("adjoint_graph", "g", "gamma1", "gamma2")],
)
def test_construction_check_refuses_wrong_ambients_and_shapes(kind, name):
    # systems and triplets share one construction check: each field in turn
    # is given one more ambient dimension (its basis padded by a zero row, so
    # its dimension stays), or a map one more row
    s = bd.canonical_system(rel.random_skew_symmetric(2, 1, seed=0))
    data = s if kind == "system" else bd.system_to_triplet(s, np.eye(s.g1.dim))
    value = getattr(data, name)
    if isinstance(value, sub.Subspace):
        padded = np.vstack([value.basis, np.zeros((1, value.dim))])
        wrong = sub.Subspace(value.ambient_dim + 1, padded)
    else:
        wrong = np.zeros((value.shape[0] + 1, value.shape[1]), dtype=complex)
    with pytest.raises(AmbientMismatch):
        dataclasses.replace(data, **{name: wrong})


def test_canonical_decomposition_zero_relation():
    s = bd.canonical_system(rel.zero_relation(1))
    g_neg, ghat1, ghat2 = bd.canonical_pieces(s)
    assert g_neg.dim == 0
    assert sub.equal(ghat1, sub.span([(1, 1)]))
    assert sub.equal(ghat2, sub.span([(1, -1)]))


def test_canonical_decomposition_mult_i():
    h0 = ref.from_operator(np.array([[1j]]), sub.full(1))
    g_neg, ghat1, ghat2 = bd.canonical_pieces(bd.canonical_system(h0))
    # no deficiency: the negated-graph piece is everything
    assert sub.equal(g_neg, rel.negate(h0).graph)
    assert ghat1.dim == 0 and ghat2.dim == 0


def test_canonical_decomposition_dimension_count():
    h0 = rel.random_skew_symmetric(4, 2, seed=9)
    pieces = bd.canonical_pieces(bd.canonical_system(h0))
    total = sum(p.dim for p in pieces)
    assert total == 2 * 4 - h0.graph_dim


def test_canonical_decomposition_requires_skew():
    with pytest.raises(NotSkewSymmetric):
        bd.canonical_pieces(
            bd.canonical_system(ref.from_operator(np.eye(1), sub.full(1)))
        )


def test_canonical_system_mult_i_degenerate():
    h0 = ref.from_operator(np.array([[1j]]), sub.full(1))
    s = bd.canonical_system(h0)
    assert s.g1.dim == 0 and s.g2.dim == 0
    assert s.f_matrix.shape == (0, 1)
    # the identity now asserts Omega vanishes on the graph: skew-self-adjointness
    assert bd.verify_system(s).ok


@settings(deadline=None, max_examples=50)
@given(params=relation_params)
def test_canonical_system_verifies(params):
    n, k, seed = params
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed))
    report = bd.verify_system(s)
    assert report.ok
    assert report.residual <= 1e-9
    # closed-form F against the oblique-projection reference, column by column
    pieces = bd.canonical_pieces(s)
    for j in range(s.adjoint_graph.dim):
        _, comp1, comp2 = ref.oblique_project(pieces, s.adjoint_graph.basis[:, j])
        column = SQRT2 * np.concatenate(
            [s.g1.basis.conj().T @ comp1[:n], s.g2.basis.conj().T @ comp2[:n]]
        )
        assert np.max(np.abs(s.f_matrix[:, j] - column), initial=0.0) <= 1e-10


@settings(deadline=None, max_examples=50)
@given(params=relation_params)
def test_decomposition_pieces_orthogonal_and_dims_sum(params):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    g_neg, ghat1, ghat2 = bd.canonical_pieces(bd.canonical_system(h0))
    pieces = (g_neg, ghat1, ghat2)
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            cross = a.basis.conj().T @ b.basis
            if cross.size:
                assert np.max(np.abs(cross)) <= 1e-9
    assert sum(p.dim for p in pieces) == rel.adjoint(h0).graph_dim


@settings(deadline=None, max_examples=50)
@given(params=relation_params)
def test_f_vanishes_on_negated_graph(params):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    s = bd.canonical_system(h0)
    g_neg = rel.negate(h0).graph
    if g_neg.dim and s.f_matrix.size:
        coords = s.adjoint_graph.basis.conj().T @ g_neg.basis
        assert np.max(np.abs(s.f_matrix @ coords)) <= 1e-9


@settings(deadline=None, max_examples=40)
@given(params=relation_params)
def test_conversion_roundtrip_on_canonical_systems(params):
    n, k, seed = params
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed))
    eye = np.eye(s.g1.dim, dtype=complex)
    t = bd.system_to_triplet(s, eye)
    assert bd.verify_triplet(t).ok
    s2 = bd.triplet_to_system(t)
    assert bd.verify_system(s2).residual <= 10 * 1e-9
    back = bd.system_to_triplet(s2, eye)
    if t.gamma1.size:
        assert np.max(np.abs(back.gamma1 - t.gamma1)) <= 1e-9
        assert np.max(np.abs(back.gamma2 - t.gamma2)) <= 1e-9


def test_decomposition_failure_is_detectable():
    # tampering with the graph so the pieces cannot sum: a non-skew base
    # sneaks past only at an absurd tolerance, so the guard trips instead
    h0 = ref.from_operator(np.array([[0.5]]), sub.full(1))
    with pytest.raises((NotSkewSymmetric, DecompositionFailure)):
        bd.canonical_pieces(bd.canonical_system(h0))
