import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import subspace as sub
from skewext.errors import AmbientMismatch, EmptyAmbient

import reference as ref
from reference import NotDirect, NotInSum


def test_span_collinear_vectors():
    s = sub.span([(1, 0), (2, 0)])
    assert s.dim == 1
    assert sub.contains(s, np.array([1, 0]))
    assert not sub.contains(s, np.array([0, 1]))


def test_span_empty_in_c3():
    s = sub.span([], m=3)
    assert s.ambient_dim == 3 and s.dim == 0


def test_span_independent_pair_is_full():
    s = sub.span([(1, 1), (1, -1)])
    assert sub.equal(s, sub.full(2))


def test_span_requires_ambient():
    with pytest.raises(EmptyAmbient):
        sub.span([])
    with pytest.raises(AmbientMismatch):
        sub.span([(1, 0), (1, 0, 0)])


def test_containment_threshold_scales_with_column_norm():
    line = sub.span([(1, 0, 0)])
    # residual 1e-4 on a vector of norm 1e6 is 1e-10 relative
    assert sub.contains(line, np.array([1e6, 1e-4, 0]))
    assert not sub.contains(line, np.array([1.0, 1e-8, 0]))
    # every column counts, not only the first
    t = sub.Subspace(3, np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))
    assert not sub.contains_subspace(line, t)
    assert sub.contains_subspace(t, line)


def test_orthocomplement_of_line():
    s = sub.complement(sub.span([(1, 0)]).basis)
    assert sub.equal(s, sub.span([(0, 1)]))


def test_orthocomplement_of_zero_is_full():
    assert sub.equal(sub.complement(sub.zero(2).basis), sub.full(2))


def test_orthocomplement_complex_line():
    # solve <(a, b), (1, i)> = 0 by hand: a - ib = 0, so the line is (i, 1)
    s = sub.complement(sub.span([(1, 1j)]).basis)
    assert s.dim == 1
    assert sub.contains(s, np.array([1j, 1]))


def test_intersect_coordinate_planes():
    e1, e2, e3 = np.eye(3)
    s = ref.intersect(sub.span([e1, e2]), sub.span([e2, e3]))
    assert sub.equal(s, sub.span([e2]))


def test_intersect_idempotent():
    s = sub.span([(1, 2, 3), (0, 1, 1j)])
    assert sub.equal(ref.intersect(s, s), s)


def test_intersect_transversal_lines():
    s = ref.intersect(sub.span([(1, 1)]), sub.span([(1, -1)]))
    assert s.dim == 0


def test_sum_and_contains_and_equal():
    e1, e2 = np.eye(2)
    assert sub.equal(ref.sum_of(sub.span([e1]), sub.span([e2])), sub.full(2))
    assert sub.contains(sub.span([(1, 1j)]), np.array([2, 2j]))
    assert sub.equal(sub.span([e1, e2]), sub.span([(1, 1), (1, -1)]))


def test_subspace_keeps_the_callers_array_writable():
    b = np.array([[1.0], [0.0]], dtype=complex)
    s = sub.Subspace(2, b)
    assert b.flags.writeable
    assert not s.basis.flags.writeable
    b[0, 0] = 0.0
    assert s.basis[0, 0] == 1.0


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        ref.sum_of(sub.full(2), sub.full(3))
    with pytest.raises(AmbientMismatch):
        ref.intersect(sub.full(2), sub.full(3))


def test_oblique_project_orthogonal_parts():
    e1, e2 = np.eye(2)
    parts = (sub.span([e1]), sub.span([e2]))
    c0, c1 = ref.oblique_project(parts, np.array([3, 4]))
    assert np.allclose(c0, [3, 0]) and np.allclose(c1, [0, 4])


def test_oblique_project_skew_parts():
    # 2x2 solve by hand: (0,1) = a(1,0) + b(1,1) gives a = -1, b = 1
    parts = (sub.span([(1, 0)]), sub.span([(1, 1)]))
    c0, c1 = ref.oblique_project(parts, np.array([0, 1]))
    assert np.allclose(c0, [-1, 0]) and np.allclose(c1, [1, 1])


def test_oblique_project_zero_vector():
    parts = (sub.span([(1, 0)]), sub.span([(1, 1)]))
    comps = ref.oblique_project(parts, np.zeros(2))
    assert all(np.allclose(c, 0) for c in comps)


def test_oblique_project_overlapping_parts():
    with pytest.raises(NotDirect):
        ref.oblique_project((sub.span([(1, 0)]), sub.span([(2, 0)])), np.array([1, 0]))


def test_oblique_project_vector_outside_sum():
    with pytest.raises(NotInSum):
        ref.oblique_project((sub.span([(1, 0, 0)]),), np.array([0, 0, 1]))


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
    assert sub.equal(sub.complement(sub.complement(s.basis).basis), s, tol=1e-9)


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
    t = sub.complement(s.basis)
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
    c = sub.complement(a)
    spanned = sub.span_matrix(a) if a.shape[1] else sub.zero(m)
    assert sub.equal(c, sub.complement(spanned.basis))
    assert c.dim + spanned.dim == m
    assert np.linalg.norm(c.basis.conj().T @ a) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_zero_subspace_is_first_class():
    z = sub.zero(3)
    assert z.dim == 0
    assert sub.equal(ref.sum_of(z, sub.full(3)), sub.full(3))
    assert ref.intersect(z, sub.full(3)).dim == 0
    assert sub.contains(z, np.zeros(3))


def test_distance_metric():
    s = sub.span([(1, 0)])
    t = sub.span([(0, 1)])
    assert sub.distance(s, s) <= 1e-12
    assert abs(sub.distance(s, t) - 1.0) <= 1e-12


def test_rank_counts_singular_values_above_relative_threshold():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1j], [0.0, 0.0, 0.0]])
    assert sub.rank(a) == 2
    assert sub.rank(a) == sub.numerical_rank(np.linalg.svd(a, compute_uv=False))
    tiny = np.diag([1.0, 1e-11, 1e-9])
    assert sub.rank(tiny) == 2  # 1e-11 is below RANK_TOL relative to 1
    assert sub.rank(np.zeros((3, 0))) == 0
