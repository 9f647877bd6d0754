"""The forms a graph subspace holds, the complements of isometries, and the
one eigensolve of the dissipativity predicates.

``subspace._graph`` computes the Gram matrix and Omega of a graph basis from
the same two half-size products; these tests hold them against b^H b and
``relation.omega_matrix``, and check that the orthonormality check still
refuses what the constructor refuses.  The QR complements of
``relation.adjoint`` and ``relation.deficiency`` are held against the SVD
complements with a rank cut that ``reference`` keeps.
"""

import numpy as np
import pytest

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import NotOrthonormal
from skewext.sampling import complex_gaussian, random_unitary
from skewext.tolerances import ORTH_TOL

import reference as ref

SIZES = [(n, k) for n in (1, 4, 16, 64) for k in sorted({0, n // 2, n})]


def random_graph_basis(n: int, k: int, seed: int) -> np.ndarray:
    """Orthonormal columns spanning a random k-dimensional subspace of C^2n."""
    rng = np.random.default_rng(seed)
    return random_unitary(2 * n, rng)[:, :k]


def operator_graph(n: int, k: int, shift: float, seed: int) -> rel.Relation:
    """The graph of S + shift I on a random k-dimensional domain, for a random
    skew-Hermitian S: Omega on it is 2 shift times a positive matrix."""
    rng = np.random.default_rng(seed)
    domain = random_unitary(n, rng)[:, :k]
    h = complex_gaussian(n, n, rng)
    a = (h - h.conj().T) / 2 + shift * np.eye(n)
    return rel.from_graph(n, np.vstack([domain, a @ domain]).T)


@pytest.mark.parametrize("n, k", SIZES)
def test_fused_gram_and_omega_match_the_plain_products(n, k):
    b = random_graph_basis(n, k, seed=n + k)
    g = sub._graph(b)
    assert g._gram.shape == g._omega.shape == (k, k)
    assert np.max(np.abs(g._gram - b.conj().T @ b), initial=0.0) <= 1e-13
    assert np.max(np.abs(g._omega - rel.omega_matrix(b)), initial=0.0) <= 1e-13
    assert np.array_equal(g.basis, b)


@pytest.mark.parametrize("n, k", [(n, k) for n, k in SIZES if k])
def test_fused_check_refuses_what_the_constructor_refuses(n, k):
    b = random_graph_basis(n, k, seed=n + k)
    rng = np.random.default_rng(k)
    perturbed = b + 1e-6 * complex_gaussian(2 * n, k, rng)
    holding_nan = b.copy()
    holding_nan[n // 2, k - 1] = np.nan
    for bad in (perturbed, holding_nan):
        with pytest.raises(NotOrthonormal, match="^basis columns are not orthonormal$"):
            sub._graph(bad)
        with pytest.raises(NotOrthonormal, match="^basis columns are not orthonormal$"):
            sub.Subspace(2 * n, bad)


@pytest.mark.parametrize("n, k", SIZES)
def test_extension_and_negation_forms_are_those_of_their_own_bases(n, k):
    # both take their forms from another graph's: the extension as
    # principal submatrices of those of Graph(H0*), -T as those of T
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed=n * k + 1))
    dissip = ext.canonical_max_dissipative(s)
    operator = operator_graph(n, k, 0.3, seed=n + k)
    for graph in (dissip.graph, rel.negate(dissip).graph, rel.negate(operator).graph):
        b = graph.basis
        assert graph._gram.shape == (b.shape[1],) * 2
        assert np.max(np.abs(graph._gram - b.conj().T @ b), initial=0.0) <= 1e-13
        assert np.max(np.abs(graph._omega - rel.omega_matrix(b)), initial=0.0) <= 1e-13


def test_extension_check_runs_on_the_gram_submatrix():
    s = bd.canonical_system(rel.random_skew_symmetric(6, 2, seed=3))
    gram = s.adjoint_graph._gram.copy()
    gram[0, 0] += 1e-6  # a column of Graph(-H0), kept by the extension
    # as if the Graph(H0*) basis had passed with this Gram matrix
    object.__setattr__(s.adjoint_graph, "_gram", gram)
    with pytest.raises(NotOrthonormal, match="^basis columns are not orthonormal$"):
        ext.canonical_max_dissipative(s)


def largest_omega_eigenvalue(t: rel.Relation) -> float:
    return float(np.max(np.linalg.eigvalsh(rel.omega_matrix(t.graph.basis))))


@pytest.mark.parametrize("n, k", [(3, 3), (5, 2), (8, 8)])
@pytest.mark.parametrize("first", ["dissipative", "maximal"])
def test_dissipativity_verdicts_do_not_depend_on_the_order_of_questions(n, k, first):
    top = largest_omega_eigenvalue(operator_graph(n, k, 1e-6, seed=n))
    assert top > 0
    # on both sides of 2 tol = top, and far from it
    tols = [top / 20, 0.45 * top, 0.55 * top, 10 * top, ORTH_TOL]
    expected = {tol: top <= 2 * tol for tol in tols}
    maximal = {tol: expected[tol] and k == n for tol in tols}
    assert set(expected.values()) == {False, True}
    for order in (tols, tols[::-1]):
        t = operator_graph(n, k, 1e-6, seed=n)
        for tol in order:
            if first == "maximal":
                assert ext.is_maximal_dissipative(t, tol) == maximal[tol]
            assert rel.is_dissipative(t, tol) == expected[tol]
            assert ext.is_maximal_dissipative(t, tol) == maximal[tol]


def assert_same_one_dimensional_basis(fast: sub.Subspace, slow: sub.Subspace):
    if fast.dim == 1:
        assert np.max(np.abs(fast.basis - slow.basis)) <= 1e-14


@pytest.mark.parametrize("n, k", [(n, k) for n, k in SIZES] + [(5, 4), (16, 15)])
def test_qr_complements_match_the_svd_complements(n, k):
    t = rel.random_skew_symmetric(n, k, seed=7 * n + k)
    g1, g2 = ref.deficiency_by_svd(t)
    data = rel.deficiency(t)
    for fast, slow in ((data.g1, g1), (data.g2, g2)):
        assert fast.dim == slow.dim
        assert sub.distance_at_most(fast, slow, 1e-12)
        assert_same_one_dimensional_basis(fast, slow)
    fast, slow = rel.adjoint(t).graph, ref.adjoint_by_svd(t).graph
    assert fast.dim == slow.dim == 2 * n - k
    assert sub.distance_at_most(fast, slow, 1e-12)


@pytest.mark.parametrize("n, k", [(2, 1), (5, 4), (16, 8), (64, 32), (64, 63)])
def test_qr_complements_match_near_the_skew_tolerance(n, k):
    # |Omega| up to half the tolerance of the skew check
    probe = np.max(np.abs(rel._omega(operator_graph(n, k, 1e-3, seed=n + k).graph)))
    t = operator_graph(n, k, 1e-3 * 0.5 * ORTH_TOL / probe, seed=n + k)
    size = np.max(np.abs(rel.omega_matrix(t.graph.basis)))
    assert 0.25 * ORTH_TOL < size <= 0.51 * ORTH_TOL
    g1, g2 = ref.deficiency_by_svd(t)
    data = rel.deficiency(t)
    assert data.indices == (g1.dim, g2.dim) == (n - k, n - k)
    for fast, slow in ((data.g1, g1), (data.g2, g2)):
        assert sub.distance_at_most(fast, slow, 1e-12)
        assert_same_one_dimensional_basis(fast, slow)
    assert sub.distance_at_most(
        rel.adjoint(t).graph, ref.adjoint_by_svd(t).graph, 1e-12
    )
