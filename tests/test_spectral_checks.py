"""The canonical checks without their SVDs, against the SVD routes.

Maximality reads the range condition ran(1 - H) = C^n off the spectrum of
Omega the relation holds for dissipativity, where the Gershgorin bound of
its largest eigenvalue cannot decide; the spectral norm is the root of
the largest eigenvalue of the smaller Gram matrix; real boundary maps stay
real.  Each is held against its SVD route in ``reference``: the norm to
relative round-off at every magnitude, maximality wherever the two can
agree, and the one band where they may not is characterised.
"""

import json

import numpy as np
import pytest

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import relation as rel
from skewext import subspace as sub
from skewext.cli import main
from skewext.errors import NotMaximal
from skewext.linalg import is_contraction, is_unitary, matrix_2norm
from skewext.sampling import complex_gaussian, random_unitary
from skewext.tolerances import ORTH_TOL, RANK_TOL

import reference as ref
from reference import random_contraction

#: the band of the range condition: a singular value of X - X' at or below
#: this may be read differently by the spectrum of Omega and by an SVD
BAND = np.sqrt(2 * RANK_TOL)


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


# ---------------------------------------------------------------- the norm


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (7, 3), (16, 16), (5, 40)])
@pytest.mark.parametrize("real", [True, False])
def test_matrix_2norm_matches_the_svd(rows, cols, real):
    rng = np.random.default_rng(rows * cols)
    m = complex_gaussian(rows, cols, rng)
    m = m.real if real else m
    assert abs(matrix_2norm(m) - ref.matrix_2norm_by_svd(m)) <= 1e-13 * matrix_2norm(m)


def test_matrix_2norm_of_rank_deficient_and_graded_matrices():
    rng = np.random.default_rng(5)
    low = complex_gaussian(9, 2, rng) @ complex_gaussian(2, 6, rng)
    graded = complex_gaussian(6, 6, rng) * np.logspace(0, -12, 6)
    for m in (low, graded, graded.T):
        expected = ref.matrix_2norm_by_svd(m)
        assert abs(matrix_2norm(m) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e300, 1e-300, 1e307])
def test_matrix_2norm_at_extreme_magnitudes(magnitude):
    rng = np.random.default_rng(1)
    m = magnitude * complex_gaussian(4, 6, rng)
    expected = ref.matrix_2norm_by_svd(m)
    assert np.isfinite(expected)
    assert abs(matrix_2norm(m) - expected) <= 1e-12 * expected


def test_matrix_2norm_of_mixed_and_subnormal_entries():
    m = np.array([[1e200, 1e-200], [3e-300, -2e199j]])
    expected = ref.matrix_2norm_by_svd(m)
    assert abs(matrix_2norm(m) - expected) <= 1e-12 * expected
    # the scaling is exact: one entry keeps its modulus, also a subnormal one
    for x in (5e-324, 2.5e-310, 1e308, -3.0):
        assert matrix_2norm([[x]]) == abs(x)
    assert matrix_2norm(np.diag([1e308, 1.5e308])) == 1.5e308


def test_matrix_2norm_beyond_the_double_range_is_inf():
    assert matrix_2norm(np.full((2, 2), 1.5e308)) == np.inf


def test_matrix_2norm_of_empty_zero_and_non_finite_matrices():
    assert matrix_2norm(np.zeros((0, 3))) == 0.0
    assert matrix_2norm(np.zeros((3, 2), dtype=complex)) == 0.0
    assert matrix_2norm([[1.0, np.inf]]) == np.inf
    assert np.isnan(matrix_2norm([[np.nan, np.inf]]))
    assert not is_contraction([[np.nan]])


def test_matrix_2norm_takes_no_svd(svd_calls):
    matrix_2norm(complex_gaussian(5, 9, np.random.default_rng(0)))
    assert svd_calls == []


def test_huge_contraction_parameter_exits_with_not_contraction(tmp_path, capsys):
    relation = tmp_path / "zero.json"
    relation.write_text(json.dumps({"n": 2, "graph_generators": []}))
    param = tmp_path / "k.json"
    rows = [[[1e200, 0.0], [1e-200, 0.0]], [[0.0, -1e199], [0.5, 0.0]]]
    param.write_text(json.dumps({"kind": "contraction", "matrix": rows}))
    argv = ["extend", "--input", str(relation), "--param", str(param), "--mode", "phi"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: NotContraction: ")


# --------------------------------------------------------------- maximality


def near_identity(n: int, delta: float) -> rel.Relation:
    """H = diag(1 - delta, i, -1, ...) on C^n: its graph is at distance
    about delta from containing (e1, e1), and X - X' has the singular value
    about delta / sqrt(2), the others 1 or sqrt(2)."""
    diagonal = np.array([1 - delta] + [1j if j % 2 else -1.0 for j in range(1, n)])
    norms = np.sqrt(1 + np.abs(diagonal) ** 2)
    basis = np.vstack([np.eye(n), np.diag(diagonal)]) / norms
    return rel.Relation(n, sub._graph(basis))


@pytest.mark.parametrize("tol", [0.5, 0.6])
@pytest.mark.parametrize("phase", [1, 1j, (3 - 4j) / 5, np.exp(0.3j)])
def test_identity_on_c1_is_dissipative_and_not_maximal(tol, phase):
    # Omega = 1 on the graph of H = 1, so it is dissipative at tol >= 1/2;
    # ran(1 - H) = {0}
    h = rel.from_graph(1, [(phase, phase)])
    assert rel.is_dissipative(h, tol)
    assert not ext.is_maximal_dissipative(h, tol)
    # X - X' holds round-off only, which the relative cut of the SVD route
    # counts as rank one: the band, where the two may differ
    assert ref.one_minus_singular_values(h)[0] <= 1e-15
    # a triplet verified at tol reads H's dissipativity at tol too
    s = bd.canonical_system(rel.zero_relation(1), tol)
    with pytest.raises(NotMaximal):
        ext.boundary_contraction_of(bd.system_to_triplet(s, np.eye(1)), h)


@pytest.mark.parametrize(
    "n, delta, maximal, svd_maximal",
    [
        (3, 1e-4, True, True),
        (3, 1e-8, False, True),
        (3, 1e-12, False, False),
        (1, 1e-4, True, True),
        (1, 1e-8, False, True),
        # a lone singular value passes a cut relative to itself
        (1, 1e-12, False, True),
    ],
)
def test_range_condition_at_distance_delta_from_containing_x_x(
    n, delta, maximal, svd_maximal
):
    h = near_identity(n, delta)
    sigma = ref.one_minus_singular_values(h)
    assert abs(sigma[-1] - delta / np.sqrt(2)) <= 1e-3 * delta + 1e-15
    # dissipative only at tol >= 1/2: Omega's top eigenvalue is 1 - delta^2 / 2
    assert not rel.is_dissipative(h, 0.49)
    fast = ext.is_maximal_dissipative(h, 0.6)
    slow = ref.is_maximal_dissipative_by_svd(h, 0.6)
    assert (fast, slow) == (maximal, svd_maximal)
    # the two disagree exactly where delta / sqrt(2) lies in the band
    # (RANK_TOL sigma_max, sqrt(2 RANK_TOL)]
    assert (fast != slow) == (RANK_TOL * sigma[0] < sigma[-1] <= BAND)


def random_relations():
    """Relations of every kind the checks meet: skew-symmetric ones, the
    canonical extensions and contraction extensions of their systems (maximal
    dissipative), those with a column dropped (dissipative, not maximal),
    and graphs of random operators and random subspaces (mostly neither)."""
    out = []
    for n, k in [(1, 0), (2, 1), (4, 2), (6, 3), (8, 8), (16, 5)]:
        seed = 10 * n + k
        rng = np.random.default_rng(seed)
        h0 = rel.random_skew_symmetric(n, k, seed)
        s = bd.canonical_system(h0)
        dissip = ext.canonical_max_dissipative(s)
        out += [h0, dissip]
        if s.g1.dim:
            t = bd.system_to_triplet(s, random_unitary(s.g1.dim, rng))
            strict = random_contraction(s.g1.dim, rng, 0.9)
            out.append(ext.extension_from_contraction(t, strict))
        out.append(rel.Relation(n, sub._graph(dissip.graph.basis[:, 1:])))
        operator = complex_gaussian(n, n, rng)
        out.append(rel.from_graph(n, np.vstack([np.eye(n), operator]).T))
        out.append(rel.from_graph(n, complex_gaussian(2 * n, n + 1, rng).T))
    return out


@pytest.mark.parametrize("tol", [ORTH_TOL, 1e-3, 0.25])
def test_maximality_matches_the_svd_route_on_random_relations(tol):
    # dissipativity against one eigensolve, and unitarity of X -+ X' (unitary
    # exactly for a neutral graph of dimension n) against one SVD, too
    verdicts = {"maximal": set(), "dissipative": set(), "unitary": set()}
    for h in random_relations():
        fast = ext.is_maximal_dissipative(h, tol)
        assert fast == ref.is_maximal_dissipative_by_svd(h, tol)
        verdicts["maximal"].add(fast)
        fast = rel.is_dissipative(h, tol)
        assert fast == ref.is_dissipative_by_eigensolve(h, tol)
        verdicts["dissipative"].add(fast)
        x, xp = h.blocks()
        for m in (x - xp, x + xp):
            fast = is_unitary(m)
            assert fast == ref.is_unitary_by_svd(m)
            verdicts["unitary"].add(fast)
    assert all(v == {False, True} for v in verdicts.values())


@pytest.fixture
def eigensolves(monkeypatch):
    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or original(m))
    return calls


def test_maximality_takes_no_svd_and_at_most_one_eigensolve(svd_calls, eigensolves):
    # certified: the Gershgorin bound of the canonical extension's Omega is
    # round-off, within 2 tol and below the cut of the range condition
    h = ext.canonical_max_dissipative(
        bd.canonical_system(rel.random_skew_symmetric(6, 2, seed=4))
    )
    svd_calls.clear()
    eigensolves.clear()
    assert rel.is_dissipative(h) and ext.is_maximal_dissipative(h)
    assert ext.is_maximal_dissipative(h, 0.6)
    assert svd_calls == [] and eigensolves == []
    # undecided: the graph of H = diag(1 - 1e-4, i, -1) has Omega's top
    # eigenvalue near 1, above 2 tol, so the spectrum decides, once
    h = near_identity(3, 1e-4)
    assert not rel.is_dissipative(h) and not ext.is_maximal_dissipative(h)
    assert ext.is_maximal_dissipative(h, 0.6)
    assert svd_calls == [] and len(eigensolves) == 1


# ----------------------------------------------------------- real boundary maps


def test_canonical_maps_and_the_identity_triplet_are_real():
    s = bd.canonical_system(rel.random_skew_symmetric(6, 2, seed=2))
    assert s.f_matrix.dtype == np.float64
    t = bd.system_to_triplet(s, np.eye(s.g1.dim))
    assert t.gamma1.dtype == t.gamma2.dtype == np.float64
    back = bd.triplet_to_system(t)
    assert back.f_matrix.dtype == np.float64
    l0 = random_unitary(s.g1.dim, np.random.default_rng(0))
    assert bd.system_to_triplet(s, l0).gamma1.dtype == np.complex128


@pytest.mark.parametrize("n, k", [(1, 0), (4, 2), (8, 3), (16, 16)])
def test_real_maps_verify_as_their_complex_copies(n, k):
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed=n + k))
    copy = bd.BoundarySystem(
        s.base, s.adjoint_graph, s.g1, s.g2, s.f_matrix.astype(complex), s.report.tol
    )
    assert copy.f_matrix.dtype == np.complex128
    assert copy.report == s.report
    t = bd.system_to_triplet(s, np.eye(s.g1.dim))
    copy = bd.BoundaryTriplet(
        t.base, t.adjoint_graph, t.g, t.gamma1.astype(complex),
        t.gamma2.astype(complex), t.report.tol,
    )
    assert copy.report == t.report


def test_freeze_maps_keeps_the_callers_array_and_promotes_integers():
    s = bd.canonical_system(rel.zero_relation(2))
    f = np.eye(4, dtype=int)
    copy = bd.BoundarySystem(s.base, s.adjoint_graph, s.g1, s.g2, f)
    assert copy.f_matrix.dtype == np.float64 and copy.report.ok
    assert f.flags.writeable and not copy.f_matrix.flags.writeable
