import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import AmbientMismatch
from skewext.tolerances import ORTH_TOL

import reference as ref
from reference import NotDirect, NotInSum


def test_span_collinear_vectors():
    s = sub.span_matrix(np.column_stack([(1, 0), (2, 0)]))
    assert s.dim == 1
    assert sub.contains_subspace(s, sub.span_matrix(np.column_stack([(1, 0)])))
    assert not sub.contains_subspace(s, sub.span_matrix(np.column_stack([(0, 1)])))


def test_span_empty_in_c3():
    s = sub.span_matrix(np.zeros((3, 0)))
    assert s.ambient_dim == 3 and s.dim == 0


def test_span_independent_pair_is_full():
    s = sub.span_matrix(np.column_stack([(1, 1), (1, -1)]))
    assert sub.distance_at_most(s, ref.full(2), ORTH_TOL)


def test_containment_threshold_scales_with_column_norm():
    line = sub.span_matrix(np.column_stack([(1, 0, 0)]))
    # residual 1e-4 on a vector of norm 1e6 is 1e-10 relative
    big = sub.span_matrix(np.column_stack([(1e6, 1e-4, 0)]))
    off = sub.span_matrix(np.column_stack([(1.0, 1e-8, 0)]))
    assert sub.contains_subspace(line, big)
    assert not sub.contains_subspace(line, off)
    # every column counts, not only the first
    t = sub.Subspace(3, np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))
    assert not sub.contains_subspace(line, t)
    assert sub.contains_subspace(t, line)


def _complement(a):
    """The library complement of one matrix, as a subspace."""
    (basis,) = sub.complement(a)
    return sub.Subspace(a.shape[0], basis)


def test_orthocomplement_of_line():
    s = _complement(sub.span_matrix(np.column_stack([(1, 0)])).basis)
    assert sub.distance_at_most(s, sub.span_matrix(np.column_stack([(0, 1)])), ORTH_TOL)


def test_orthocomplement_of_zero_is_full():
    # the QR complement of no columns is the identity, exactly
    (basis,) = sub.complement(sub.zero(2).basis)
    assert np.array_equal(basis, np.eye(2))
    for a in (sub.zero(2).basis, np.zeros((2, 3))):
        assert sub.distance_at_most(ref.complement(a), ref.full(2), ORTH_TOL)


def test_orthocomplement_complex_line():
    # solve <(a, b), (1, i)> = 0 by hand: a - ib = 0, so the line is (i, 1)
    s = _complement(sub.span_matrix(np.column_stack([(1, 1j)])).basis)
    assert s.dim == 1
    assert sub.contains_subspace(s, sub.span_matrix(np.column_stack([(1j, 1)])))


def test_intersect_coordinate_planes():
    e1, e2, e3 = np.eye(3)
    s = ref.intersect(
        sub.span_matrix(np.column_stack([e1, e2])),
        sub.span_matrix(np.column_stack([e2, e3])),
    )
    assert sub.distance_at_most(s, sub.span_matrix(np.column_stack([e2])), ORTH_TOL)


def test_intersect_idempotent():
    s = sub.span_matrix(np.column_stack([(1, 2, 3), (0, 1, 1j)]))
    assert sub.distance_at_most(ref.intersect(s, s), s, ORTH_TOL)


def test_intersect_transversal_lines():
    s = ref.intersect(
        sub.span_matrix(np.column_stack([(1, 1)])),
        sub.span_matrix(np.column_stack([(1, -1)])),
    )
    assert s.dim == 0


def test_sum_and_contains_and_equal():
    e1, e2 = np.eye(2)
    summed = ref.sum_of(sub.span_matrix(e1[:, None]), sub.span_matrix(e2[:, None]))
    assert sub.distance_at_most(summed, ref.full(2), ORTH_TOL)
    line = sub.span_matrix(np.column_stack([(1, 1j)]))
    assert sub.contains_subspace(line, sub.span_matrix(np.column_stack([(2, 2j)])))
    assert sub.distance_at_most(
        sub.span_matrix(np.column_stack([e1, e2])),
        sub.span_matrix(np.column_stack([(1, 1), (1, -1)])),
        ORTH_TOL,
    )


def test_subspace_keeps_the_callers_array_writable():
    b = np.array([[1.0], [0.0]], dtype=complex)
    s = sub.Subspace(2, b)
    assert b.flags.writeable
    assert not s.basis.flags.writeable
    b[0, 0] = 0.0
    assert s.basis[0, 0] == 1.0


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        ref.sum_of(ref.full(2), ref.full(3))
    with pytest.raises(AmbientMismatch):
        ref.intersect(ref.full(2), ref.full(3))


def test_oblique_project_orthogonal_parts():
    e1, e2 = np.eye(2)
    parts = (sub.span_matrix(e1[:, None]), sub.span_matrix(e2[:, None]))
    c0, c1 = ref.oblique_project(parts, np.array([3, 4]))
    assert np.allclose(c0, [3, 0]) and np.allclose(c1, [0, 4])


def test_oblique_project_skew_parts():
    # 2x2 solve by hand: (0,1) = a(1,0) + b(1,1) gives a = -1, b = 1
    parts = tuple(sub.span_matrix(np.column_stack([v])) for v in ((1, 0), (1, 1)))
    c0, c1 = ref.oblique_project(parts, np.array([0, 1]))
    assert np.allclose(c0, [-1, 0]) and np.allclose(c1, [1, 1])


def test_oblique_project_zero_vector():
    parts = tuple(sub.span_matrix(np.column_stack([v])) for v in ((1, 0), (1, 1)))
    comps = ref.oblique_project(parts, np.zeros(2))
    assert all(np.allclose(c, 0) for c in comps)


def test_oblique_project_overlapping_parts():
    parts = tuple(sub.span_matrix(np.column_stack([v])) for v in ((1, 0), (2, 0)))
    with pytest.raises(NotDirect):
        ref.oblique_project(parts, np.array([1, 0]))


def test_oblique_project_vector_outside_sum():
    with pytest.raises(NotInSum):
        ref.oblique_project((sub.span_matrix(np.eye(3)[:, :1]),), np.array([0, 0, 1]))


def _random_subspace(m, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return sub.span_matrix(a)


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 6),
    frac=st.fractions(0, 1),
    seed=st.integers(0, 10**6),
)
def test_double_complement_is_identity(m, frac, seed):
    k = round(float(frac) * m)
    s = _random_subspace(m, k, seed)
    assert sub.distance_at_most(_complement(_complement(s.basis).basis), s, 1e-9)


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_dimension_formula(m, seed):
    rng = np.random.default_rng(seed)
    s = _random_subspace(m, int(rng.integers(0, m + 1)), seed)
    t = _random_subspace(m, int(rng.integers(0, m + 1)), seed + 1)
    assert (
        ref.intersect(s, t).dim + ref.sum_of(s, t).dim == s.dim + t.dim
    )


@settings(deadline=None, max_examples=40)
@given(m=st.integers(2, 6), seed=st.integers(0, 10**6))
def test_oblique_components_resum(m, seed):
    rng = np.random.default_rng(seed)
    k1 = int(rng.integers(1, m))
    s = _random_subspace(m, k1, seed)
    t = _complement(s.basis)
    # a vector in the direct sum of complementary parts, possibly skewed
    v = s.basis @ rng.standard_normal(s.dim) + (
        t.basis @ rng.standard_normal(t.dim) if t.dim else 0
    )
    comps = ref.oblique_project((s, t), v)
    resum = np.sum(comps, axis=0)
    assert np.linalg.norm(resum - v) <= 1e-9 * max(1.0, np.linalg.norm(v))


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 6),
    cols=st.integers(0, 7),
    kind=st.sampled_from(["rank_deficient", "zero", "no_columns"]),
    seed=st.integers(0, 10**6),
)
def test_complement_matches_span_then_complement(m, cols, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "no_columns":
        a = np.zeros((m, 0), dtype=complex)
    elif kind == "zero":
        a = np.zeros((m, cols), dtype=complex)
    else:
        r = int(rng.integers(0, min(m, cols) + 1))
        left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        right = rng.standard_normal((r, cols)) + 1j * rng.standard_normal((r, cols))
        a = left @ right
    c = ref.complement(a)
    spanned = sub.span_matrix(a) if a.shape[1] else sub.zero(m)
    # the SVD complement with its rank cut of any matrix is the library's QR
    # complement of an orthonormal basis of its span
    assert sub.distance_at_most(c, _complement(spanned.basis), ORTH_TOL)
    assert c.dim + spanned.dim == m
    assert np.linalg.norm(c.basis.conj().T @ a) <= 1e-9 * max(1.0, np.linalg.norm(a))


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(1, 8),
    frac=st.fractions(0, 1),
    count=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_complement_of_full_column_rank_matrices(m, frac, count, seed):
    # full column rank, not orthonormal: the premise is rank, not isometry
    k = round(float(frac) * m)
    rng = np.random.default_rng(seed)
    mats = [
        rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        for _ in range(count)
    ]
    bases = sub.complement(*mats)
    assert len(bases) == count
    for a, basis in zip(mats, bases):
        c = sub.Subspace(m, basis)
        assert c.dim == m - k
        assert np.linalg.norm(basis.conj().T @ a) <= 1e-12 * np.linalg.norm(a)
        assert sub.distance_at_most(c, ref.complement(a), 1e-12)
        assert np.array_equal(basis, sub.complement(a)[0])


def test_zero_subspace_is_first_class():
    z = sub.zero(3)
    assert z.dim == 0
    assert sub.distance_at_most(ref.sum_of(z, ref.full(3)), ref.full(3), ORTH_TOL)
    assert ref.intersect(z, ref.full(3)).dim == 0
    assert sub.contains_subspace(z, sub.span_matrix(np.column_stack([np.zeros(3)])))


def test_distance_metric():
    s, t = sub.span_matrix(np.eye(2)[:, :1]), sub.span_matrix(np.eye(2)[:, 1:])
    assert sub.distance_at_most(s, s, 1e-12)
    # orthogonal lines are at gap 1
    assert sub.distance_at_most(s, t, 1.0 + 1e-12)
    assert not sub.distance_at_most(s, t, 1.0 - 1e-12)


def test_rank_counts_singular_values_above_relative_threshold():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1j], [0.0, 0.0, 0.0]])
    assert sub.rank(a) == 2
    assert sub.rank(a) == sub.numerical_rank(np.linalg.svd(a, compute_uv=False))
    tiny = np.diag([1.0, 1e-11, 1e-9])
    assert sub.rank(tiny) == 2  # 1e-11 is below RANK_TOL relative to 1
    assert sub.rank(np.zeros((3, 0))) == 0


def _assert_real_pivots(b):
    """Every column's largest-magnitude entry is exactly real and positive."""
    pivots = b[np.argmax(np.abs(b), axis=0), np.arange(b.shape[1])]
    assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0)


@pytest.mark.parametrize("m, k", [(1, 1), (5, 1), (6, 3), (12, 12), (40, 7)])
@pytest.mark.parametrize("seed", range(4))
def test_canonical_phases_make_every_pivot_exactly_real(m, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    _assert_real_pivots(sub._canonical_phases(a))
    # on an orthonormal basis the rotated columns stay one
    q = np.linalg.qr(a)[0]
    rotated = sub._canonical_phases(q)
    _assert_real_pivots(rotated)
    sub.Subspace(m, rotated)
    # the complement and the domain of a relation are built the same way
    _assert_real_pivots(sub.complement(a)[0])
    relation = rel.Relation(m, sub.span_matrix(rng.standard_normal((2 * m, k))))
    _assert_real_pivots(relation.graph.basis)
    _assert_real_pivots(rel.domain(relation).basis)
