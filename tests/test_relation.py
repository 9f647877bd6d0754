import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import BadDimension, NotSkewSymmetric

import reference as ref


def mult_by(a, n=1):
    """Scalar (or matrix) multiplication operator on its full space."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    return ref.from_operator(m, sub.full(m.shape[0]))


def graph_of(*vectors):
    n = len(vectors[0]) // 2
    return rel.from_graph(n, vectors)


# instance generation knobs shared by the hypothesis tests below
relation_params = st.tuples(
    st.integers(1, 5), st.fractions(0, 1), st.integers(0, 10**6)
).map(lambda t: (t[0], round(float(t[1]) * t[0]), t[2]))


def test_from_operator_mult_i():
    t = mult_by(1j)
    assert sub.equal(t.graph, sub.span([(1, 1j)]))


def test_from_operator_zero_domain():
    t = ref.from_operator(np.array([[5.0]]), sub.zero(1))
    assert t.graph_dim == 0


def test_from_operator_partial_domain():
    t = ref.from_operator(np.eye(2), sub.span([(1, 0)]))
    assert sub.equal(t.graph, sub.span([(1, 0, 1, 0)]))


def test_anatomy_zero_relation():
    t = rel.zero_relation(1)
    assert rel.domain(t).dim == 0
    assert rel.mul_part(t).dim == 0


def test_anatomy_purely_multivalued():
    t = graph_of((0, 1))
    assert rel.domain(t).dim == 0
    assert sub.equal(rel.mul_part(t), sub.full(1))
    # a top graph block of pure round-off must not count as a domain
    rng = np.random.default_rng(0)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = rel.from_graph(3, [np.concatenate([np.zeros(3), v[:, j]]) for j in range(3)])
    assert rel.domain(t).dim == 0
    assert sub.equal(rel.mul_part(t), sub.full(3))


def test_anatomy_mult_i():
    t = graph_of((1, 1j))
    assert sub.equal(rel.domain(t), sub.full(1))
    assert rel.kernel(t).dim == 0


def test_adjoint_of_zero_relation_is_everything():
    t_star = rel.adjoint(rel.zero_relation(1))
    assert sub.equal(t_star.graph, sub.full(2))


def test_adjoint_of_mult_i():
    t_star = rel.adjoint(mult_by(1j))
    assert sub.equal(t_star.graph, sub.span([(1, -1j)]))


def test_adjoint_of_complex_line():
    # solve <i x, y> = <x, y'> for all x: y' = -i y
    t_star = rel.adjoint(graph_of((1, 1j)))
    assert sub.equal(t_star.graph, sub.span([(1, -1j)]))


def test_neg_adjoint_mult_i_is_itself():
    # span{(1,i)}^perp = span{(i,1)}, swapped back to span{(1,i)}
    t = mult_by(1j)
    assert sub.equal(ref.neg_adjoint(t).graph, t.graph)


def test_neg_adjoint_of_zero_and_full():
    assert sub.equal(ref.neg_adjoint(rel.zero_relation(1)).graph, sub.full(2))
    assert ref.neg_adjoint(ref.full_relation(1)).graph_dim == 0


def test_is_skew_symmetric_examples():
    assert rel.is_skew_symmetric(mult_by(1j))
    assert not rel.is_skew_symmetric(mult_by(1.0))
    assert rel.is_skew_symmetric(rel.zero_relation(1))


def test_deficiency_zero_relation():
    d = rel.deficiency(rel.zero_relation(1))
    assert d.indices == (1, 1)
    assert sub.equal(d.g1, sub.full(1)) and sub.equal(d.g2, sub.full(1))


def test_deficiency_mult_i():
    assert rel.deficiency(mult_by(1j)).indices == (0, 0)


def test_deficiency_zero_relation_dim2():
    assert rel.deficiency(rel.zero_relation(2)).indices == (2, 2)


def test_deficiency_requires_skew_symmetry():
    with pytest.raises(NotSkewSymmetric):
        rel.deficiency(mult_by(1.0))


def test_deficiency_membership_invariant():
    t = rel.random_skew_symmetric(4, 2, seed=5)
    t_star = rel.adjoint(t)
    d = rel.deficiency(t)
    for j in range(d.g1.dim):
        x = d.g1.basis[:, j]
        assert sub.contains(t_star.graph, np.concatenate([x, x]))
    for j in range(d.g2.dim):
        x = d.g2.basis[:, j]
        assert sub.contains(t_star.graph, np.concatenate([x, -x]))


def test_is_dissipative_examples():
    assert rel.is_dissipative(mult_by(-1.0))
    assert not rel.is_dissipative(mult_by(1.0))
    assert rel.is_dissipative(rel.random_skew_symmetric(3, 2, seed=0))


def test_is_skew_self_adjoint_examples():
    assert rel.is_skew_self_adjoint(mult_by(1j))
    assert rel.is_skew_self_adjoint(graph_of((0, 1)))
    assert not rel.is_skew_self_adjoint(rel.zero_relation(1))


def test_extends_negate_restrict():
    assert rel.extends(ref.full_relation(1), rel.zero_relation(1))
    assert sub.equal(rel.negate(mult_by(1j)).graph, sub.span([(1, -1j)]))
    t = mult_by(1j, n=1)
    assert sub.equal(rel.negate(rel.negate(t)).graph, t.graph)


def test_generator_zero_dim():
    assert rel.random_skew_symmetric(1, 0, seed=3).graph_dim == 0


def test_generator_bad_dims():
    with pytest.raises(BadDimension):
        rel.random_skew_symmetric(2, 3, seed=0)
    with pytest.raises(BadDimension):
        rel.random_skew_symmetric(2, -1, seed=0)


def test_generator_deterministic():
    a = rel.random_skew_symmetric(4, 3, seed=42)
    b = rel.random_skew_symmetric(4, 3, seed=42)
    assert np.array_equal(a.graph.basis, b.graph.basis)


def test_generator_index_sum():
    # dim Graph(H0*) = 2n - k splits evenly between the two deficiency spaces
    for seed in (0, 1):
        t = rel.random_skew_symmetric(3, 2, seed=seed)
        d = rel.deficiency(t)
        assert d.indices[0] + d.indices[1] == 2 * (3 - 2)


@settings(deadline=None, max_examples=60)
@given(params=relation_params)
def test_adjoint_is_involution(params):
    n, k, seed = params
    t = rel.random_skew_symmetric(n, k, seed)
    assert sub.equal(rel.adjoint(rel.adjoint(t)).graph, t.graph, tol=1e-9)


@settings(deadline=None, max_examples=60)
@given(params=relation_params)
def test_neg_adjoint_agrees_with_negated_adjoint(params):
    n, k, seed = params
    t = rel.random_skew_symmetric(n, k, seed)
    assert sub.equal(
        ref.neg_adjoint(t).graph, rel.negate(rel.adjoint(t)).graph, tol=1e-9
    )


@settings(deadline=None, max_examples=60)
@given(params=relation_params)
def test_generator_is_skew_symmetric_with_equal_indices(params):
    n, k, seed = params
    t = rel.random_skew_symmetric(n, k, seed)
    assert t.graph_dim == k
    assert rel.is_skew_symmetric(t)
    assert rel.extends(ref.neg_adjoint(t), t)
    d = rel.deficiency(t)
    assert d.indices[0] == d.indices[1] == n - k
    # reference route: g1, g2 as first components of Graph(T*) cut with the
    # diagonals {(x, x)} and {(x, -x)}
    eye = np.eye(n, dtype=complex)
    for g, sign in ((d.g1, 1.0), (d.g2, -1.0)):
        diag = sub.Subspace(2 * n, np.vstack([eye, sign * eye]) / np.sqrt(2.0))
        cut = ref.intersect(rel.adjoint(t).graph, diag)
        first = sub.span_matrix(cut.basis[:n, :]) if cut.dim else sub.zero(n)
        assert sub.equal(g, first)
    # the rank cuts for g1, g2 are well conditioned: X -+ X' is an isometry
    x, xp = t.blocks()
    for m in (x - xp, x + xp):
        assert np.all(np.abs(np.linalg.svd(m, compute_uv=False) - 1.0) <= 1e-9)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 5),
    kind=st.sampled_from(["maximal", "short", "non_neutral", "perturbed"]),
    delta=st.sampled_from([1e-12, 1e-6]),
    seed=st.integers(0, 10**6),
)
def test_skew_self_adjoint_by_dimension_count(n, kind, delta, seed):
    rng = np.random.default_rng(seed)
    if kind == "maximal":
        t, expected = rel.random_skew_symmetric(n, n, seed), True
    elif kind == "short":
        k = int(rng.integers(0, n))
        t, expected = rel.random_skew_symmetric(n, k, seed), False
    elif kind == "non_neutral":
        a = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        t, expected = rel.Relation(n, sub.span_matrix(a)), False
    else:
        basis = rel.random_skew_symmetric(n, n, seed).graph.basis
        noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
        t, expected = rel.Relation(n, sub.span_matrix(basis + delta * noise)), None
    # reference: mutual containment of Graph(T) and Graph(-T*)
    reference = sub.equal(t.graph, ref.neg_adjoint(t).graph)
    assert rel.is_skew_self_adjoint(t) == reference
    if expected is not None:
        assert reference == expected


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_skew_self_adjoint_implies_no_deficiency(n, seed):
    t = rel.random_skew_symmetric(n, n, seed)
    assert rel.is_skew_self_adjoint(t)
    assert rel.is_skew_symmetric(t)
    assert rel.deficiency(t).indices == (0, 0)
