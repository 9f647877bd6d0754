"""Closed forms on the graph blocks against the intersection routes.

``relation.kernel``, ``mul_part`` and ``domain`` read X ker(X'), X' ker(X)
and ran(X) off the blocks (X, X') of the orthonormal graph basis;
``tests/reference.py`` computes the same spaces by intersecting the graph
with the coordinate halves of C^2n.  ``subspace.distance`` compares the bases
directly; the reference forms the two projectors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import relation as rel
from skewext import subspace as sub
from skewext.sampling import complex_gaussian, random_unitary

import reference as ref

SPACES = [
    (rel.kernel, ref.kernel_by_intersection),
    (rel.mul_part, ref.mul_by_intersection),
    (rel.domain, ref.domain_by_intersection),
]


def _generated(n, rng, ops, kernel, mul):
    """Graph spanned by ``ops`` pairs (x, Ax), ``kernel`` pairs (x, 0) and
    ``mul`` pairs (0, x') with Gaussian x, x' and A."""
    a = complex_gaussian(n, n, rng)
    x = complex_gaussian(n, ops, rng)
    zeros = np.zeros((n, kernel + mul), dtype=complex)
    top = np.hstack([x, complex_gaussian(n, kernel, rng), zeros[:, :mul]])
    bottom = np.hstack([a @ x, zeros[:, :kernel], complex_gaussian(n, mul, rng)])
    return rel.Relation(n, sub.span_matrix(np.vstack([top, bottom])))


def _scaled_block(n, rng, sigma=(1e-3, 1e-12)):
    """Two-dimensional graph whose X block has the singular values ``sigma``:
    X = U diag(sigma) V^H and X' = U' diag(sqrt(1 - sigma^2)) V^H."""
    sigma = np.array(sigma)
    u = random_unitary(n, rng)[:, :2]
    up = random_unitary(n, rng)[:, :2]
    vh = random_unitary(2, rng)
    basis = np.vstack([(u * sigma) @ vh, (up * np.sqrt(1.0 - sigma**2)) @ vh])
    return rel.Relation(n, sub.Subspace(2 * n, basis))


def _round_off_block(n, rng):
    """Purely multivalued relation whose top graph block is pure round-off
    after the spanning SVD."""
    v = complex_gaussian(n, n, rng)
    return rel.from_graph(n, [np.concatenate([np.zeros(n), v[:, j]]) for j in range(n)])


def _relation(kind, n, rng):
    def size():
        return int(rng.integers(0, n + 1))

    if kind == "operator":
        return _generated(n, rng, size(), size() // 2, 0)
    if kind == "multivalued":
        return _generated(n, rng, 0, 0, max(1, size()))
    if kind == "mixed":
        return _generated(n, rng, size(), size() // 2, size() // 2)
    if kind == "zero":
        return rel.zero_relation(n)
    if kind == "full":
        return ref.full_relation(n)
    if kind == "scaled":
        return _scaled_block(max(n, 2), rng)
    return _round_off_block(n, rng)


@settings(deadline=None, max_examples=120)
@given(
    kind=st.sampled_from(
        ["operator", "multivalued", "mixed", "zero", "full", "scaled", "round_off"]
    ),
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
)
def test_closed_forms_equal_the_intersection_routes(kind, n, seed):
    t = _relation(kind, n, np.random.default_rng(seed))
    for closed, reference in SPACES:
        fast, slow = closed(t), reference(t)
        assert fast.dim == slow.dim
        assert sub.equal(fast, slow, tol=1e-9)
    assert rel.domain(t).dim + rel.mul_part(t).dim == t.graph_dim


def test_operator_graph_with_prescribed_kernel():
    # (e1, 0) and (e2, i e3) on C^3: kernel e1, domain {e1, e2}, no mul part
    t = rel.from_graph(3, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1j)])
    assert sub.equal(rel.kernel(t), sub.span([(1, 0, 0)]))
    assert sub.equal(rel.domain(t), sub.span([(1, 0, 0), (0, 1, 0)]))
    assert rel.mul_part(t).dim == 0
    assert sub.equal(rel.mul_part(ref.full_relation(3)), sub.full(3))


def test_scaled_block_is_cut_at_the_absolute_threshold():
    # a cut relative to the largest singular value 1e-3 keeps 1e-12 too
    t = _scaled_block(3, np.random.default_rng(7))
    x, _ = t.blocks()
    assert sub.numerical_rank(np.linalg.svd(x, compute_uv=False)) == 2
    assert rel.domain(t).dim == 1
    assert rel.mul_part(t).dim == 1
    assert rel.kernel(t).dim == 0
    for closed, reference in SPACES:
        assert sub.equal(closed(t), reference(t), tol=1e-9)


def _random_subspace(m, k, rng):
    return sub.span_matrix(complex_gaussian(m, k, rng)) if k else sub.zero(m)


@settings(deadline=None, max_examples=120)
@given(
    m=st.integers(1, 8),
    kind=st.sampled_from(["independent", "perturbed", "same", "zero"]),
    seed=st.integers(0, 10**6),
)
def test_distance_equals_the_projector_form(m, kind, seed):
    rng = np.random.default_rng(seed)
    s = _random_subspace(m, int(rng.integers(0, m + 1)), rng)
    if kind == "independent":
        t = _random_subspace(m, int(rng.integers(0, m + 1)), rng)
    elif kind == "perturbed" and s.dim:
        delta = 10.0 ** -int(rng.integers(4, 13))
        t = sub.span_matrix(s.basis + delta * complex_gaussian(m, s.dim, rng))
    elif kind == "zero":
        t = sub.zero(m)
    else:
        t = s
    for a, b in ((s, t), (t, s)):
        assert abs(sub.distance(a, b) - ref.distance_by_projectors(a, b)) <= 1e-14
