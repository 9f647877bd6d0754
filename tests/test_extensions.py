import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import (
    InvalidSystem,
    InvalidTriplet,
    NotContraction,
    NotDissipative,
    NotMaximal,
    NotRestriction,
    NotSkewSelfAdjoint,
    NotUnitary,
)
from skewext.sampling import random_unitary
from skewext.tolerances import ROUNDTRIP_TOL

import reference as ref
from reference import random_contraction

relation_params = st.tuples(
    st.integers(1, 5), st.fractions(0, 1), st.integers(0, 10**6)
).map(lambda t: (t[0], round(float(t[1]) * t[0]), t[2]))

# parameters guaranteeing a nontrivial boundary space (k < n)
deficient_params = st.tuples(
    st.integers(2, 5), st.fractions(0, 1), st.integers(0, 10**6)
).map(lambda t: (t[0], min(t[0] - 1, round(float(t[1]) * t[0])), t[2]))


def zero_system():
    return bd.canonical_system(rel.zero_relation(1))


def zero_triplet():
    return bd.system_to_triplet(zero_system(), np.eye(1))


def mult_by(a):
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    return ref.from_operator(m, ref.full(m.shape[0]))


def test_param_validation():
    # each constructor checks the parameter it uses, shape included
    s = bd.canonical_system(rel.random_skew_symmetric(3, 1, seed=2))
    t = bd.system_to_triplet(s, np.eye(2))
    ext.system_unitary_extension(s, np.eye(2))
    ext.triplet_unitary_extension(t, np.eye(2))
    ext.extension_from_contraction(t, 0.5 * np.eye(2))
    with pytest.raises(NotUnitary):
        ext.triplet_unitary_extension(t, 2.0 * np.eye(2))
    with pytest.raises(NotUnitary):
        ext.triplet_unitary_extension(t, np.eye(3))
    with pytest.raises(NotContraction):
        ext.extension_from_contraction(t, 2.0 * np.eye(2))
    with pytest.raises(NotContraction):
        ext.extension_from_contraction(t, 0.5 * np.eye(3))
    with pytest.raises(NotContraction):
        ext.extension_from_contraction(t, np.ones(2) / 2)


def test_system_extension_identity_gives_zero_operator():
    h = ext.system_unitary_extension(zero_system(), np.array([[1.0]]))
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(1, 0)])), sub.ORTH_TOL
    )
    assert rel.is_skew_self_adjoint(h)


def test_system_extension_i_gives_mult_minus_i():
    h = ext.system_unitary_extension(zero_system(), np.array([[1j]]))
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(1, -1j)])), sub.ORTH_TOL
    )


def test_system_extension_minus_one_gives_multivalued():
    h = ext.system_unitary_extension(zero_system(), np.array([[-1.0]]))
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(0, 1)])), sub.ORTH_TOL
    )
    assert rel.is_skew_self_adjoint(h)


def test_system_extension_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        ext.system_unitary_extension(zero_system(), np.array([[0.5]]))


def test_readoff_inverts_the_examples():
    s = zero_system()
    assert np.allclose(ext.system_unitary_readoff(s, ext.system_unitary_extension(s, [[1.0]])), 1.0)
    assert np.allclose(ext.system_unitary_readoff(s, ext.system_unitary_extension(s, [[1j]])), 1j)


def test_readoff_rejects_non_sksa():
    with pytest.raises(NotSkewSelfAdjoint):
        ext.system_unitary_readoff(zero_system(), mult_by(-1.0))


def test_readoff_rejects_non_restriction():
    h0 = mult_by(1j)  # already skew-self-adjoint, adjoint graph is span{(1,-i)}
    s = bd.canonical_system(h0)
    with pytest.raises(NotRestriction):
        ext.system_unitary_readoff(s, mult_by(1j))


def test_readoff_runs_at_the_system_tolerance():
    # a unitary extension whose graph is moved by about 1e-8 is
    # skew-self-adjoint at 1e-6 but not at the default 1e-9: the read-off
    # decides at the tolerance its system was verified at
    h0 = rel.random_skew_symmetric(4, 2, seed=3)
    loose = bd.canonical_system(h0, 1e-6)
    rng = np.random.default_rng(7)
    l = random_unitary(loose.g1.dim, rng)
    basis = ext.system_unitary_extension(loose, l).graph.basis
    noise = rng.standard_normal(basis.shape) + 1j * rng.standard_normal(basis.shape)
    h = rel.Relation(4, sub.span_matrix(basis + 1e-8 * noise))
    assert np.max(np.abs(ext.system_unitary_readoff(loose, h) - l)) <= 1e-6
    with pytest.raises(NotSkewSelfAdjoint):
        ext.system_unitary_readoff(bd.canonical_system(h0), h)


def test_triplet_extension_identity_gives_zero_operator():
    h = ext.triplet_unitary_extension(zero_triplet(), np.array([[1.0]]))
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(1, 0)])), sub.ORTH_TOL
    )


def test_triplet_extension_i_gives_mult_i():
    # (i-1)x + (i+1)x' = 0 forces x' = -ix; negation turns it into mult by i
    h = ext.triplet_unitary_extension(zero_triplet(), np.array([[1j]]))
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(1, 1j)])), sub.ORTH_TOL
    )


def test_triplet_extension_minus_one_gives_multivalued():
    h = ext.triplet_unitary_extension(zero_triplet(), np.array([[-1.0]]))
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(0, 1)])), sub.ORTH_TOL
    )


def test_bridge_on_zero_relation_examples():
    s = zero_system()
    l = np.array([[1j]])
    lhs = ext.system_unitary_extension(s, l)
    assert ext.bridge_check(s, np.eye(1), l, lhs)
    assert ext.bridge_check(s, np.array([[1j]]), l, lhs)
    # a left side that is not the extension of L fails the check
    assert not ext.bridge_check(s, np.eye(1), l, ext.system_unitary_extension(s, -l))


def test_boundary_contraction_of_mult_minus_one_is_zero():
    k = ext.boundary_contraction_of(zero_triplet(), mult_by(-1.0))
    assert np.allclose(k, [[0.0]], atol=1e-12)


def test_boundary_contraction_of_zero_operator_is_one():
    k = ext.boundary_contraction_of(zero_triplet(), mult_by(0.0))
    assert np.allclose(k, [[1.0]], atol=1e-12)


def test_boundary_contraction_of_mult_i_is_i():
    k = ext.boundary_contraction_of(zero_triplet(), mult_by(1j))
    assert np.allclose(k, [[1j]], atol=1e-12)


def test_boundary_contraction_of_rejects_non_dissipative():
    with pytest.raises(NotDissipative):
        ext.boundary_contraction_of(zero_triplet(), mult_by(1.0))


def test_boundary_contraction_of_rejects_non_maximal():
    with pytest.raises(NotMaximal):
        ext.boundary_contraction_of(zero_triplet(), rel.zero_relation(1))


def test_extension_from_contraction_examples():
    t = zero_triplet()
    assert sub.distance_at_most(
        ext.extension_from_contraction(t, [[0.0]]).graph,
        sub.span_matrix(np.column_stack([(1, -1)])),
        sub.ORTH_TOL,
    )
    assert sub.distance_at_most(
        ext.extension_from_contraction(t, [[1.0]]).graph,
        sub.span_matrix(np.column_stack([(1, 0)])),
        sub.ORTH_TOL,
    )


def test_extension_from_contraction_rejects_expansion():
    with pytest.raises(NotContraction):
        ext.extension_from_contraction(zero_triplet(), [[1.5]])


def test_unitarity_equivalence_examples():
    t = zero_triplet()
    for h in (mult_by(0.0), mult_by(-1.0)):
        assert ext.unitarity_equivalence_check(t, h, ext.boundary_contraction_of(t, h))


def test_existence_report_zero_relation():
    report = ext.existence_report(bd.canonical_system(rel.zero_relation(1)))
    assert report.indices == (1, 1)
    assert report.booleans == (True, True, True, True)
    assert report.agree


def test_existence_report_mult_i():
    report = ext.existence_report(bd.canonical_system(mult_by(1j)))
    assert report.indices == (0, 0)
    assert report.agree and report.has_sksa_extension


def test_existence_booleans_are_computed_independently(monkeypatch):
    # with the deficiency solver reporting unequal indices after the system
    # is built, only the index boolean may follow it: the extension, the
    # triplet and the inertia of Omega on Graph(H0*) see the relation itself
    h0 = rel.random_skew_symmetric(4, 1, seed=7)
    s = bd.canonical_system(h0)
    true = rel.deficiency(h0, s.report.tol)
    assert true.indices == (3, 3)
    g2 = sub.Subspace(4, true.g2.basis[:, :2])
    fake = rel.DeficiencyData(g1=true.g1, g2=g2, indices=(3, 2))
    monkeypatch.setattr(rel, "deficiency", lambda t, tol=sub.ORTH_TOL: fake)
    report = ext.existence_report(s)
    assert report.indices == (3, 2)
    assert report.booleans == (False, True, True, True)
    assert not report.agree


def test_canonical_max_dissipative_zero_relation():
    h = ext.canonical_max_dissipative(bd.canonical_system(rel.zero_relation(1)))
    # mult by -1
    assert sub.distance_at_most(
        h.graph, sub.span_matrix(np.column_stack([(1, -1)])), sub.ORTH_TOL
    )
    assert rel.is_dissipative(h)
    assert ext.is_maximal_dissipative(h)
    assert rel.extends(h, rel.negate(rel.zero_relation(1)))


def test_canonical_max_dissipative_no_deficiency():
    # with trivial g2 the construction returns the negated base itself
    h0 = mult_by(1j)
    h = ext.canonical_max_dissipative(bd.canonical_system(h0))
    assert sub.distance_at_most(h.graph, rel.negate(h0).graph, sub.ORTH_TOL)
    assert ext.is_maximal_dissipative(h)


def test_adjoint_formula_zero_relation_and_mult_i():
    assert ext.adjoint_formula_check(bd.canonical_system(rel.zero_relation(1)))
    assert ext.adjoint_formula_check(bd.canonical_system(mult_by(1j)))


def _formula_instances():
    """(n, k, seed) of 100 random canonical systems: 94 with n <= 8, among
    them k = 0 and k = n at every n, and n = 32 and 64 at k = 0, n/2, n."""
    rng = np.random.default_rng(2017)
    out = [(n, k, 100 + n) for n in range(1, 9) for k in (0, n)]
    while len(out) < 94:
        n = int(rng.integers(1, 9))
        out.append((n, int(rng.integers(0, n + 1)), int(rng.integers(10**6))))
    return out + [(n, k, n) for n in (32, 64) for k in (0, n // 2, n)]


def test_adjoint_gap_equals_the_complement_gap():
    for n, k, seed in _formula_instances():
        s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed))
        h = ext.canonical_max_dissipative(s)
        g_neg, ghat1, ghat2 = ref.canonical_pieces(s)
        # the formula graph, then the two wrong ones of equal dimension: g2
        # in place of g1, and the sum not negated
        for first, second, negated in (
            (g_neg, ghat1, True),
            (g_neg, ghat2, True),
            (g_neg, ghat1, False),
        ):
            graph = ref.formula_graph(first, second, negated)
            new = ref.adjoint_gap(h, graph.basis)
            old = ref.adjoint_gap_by_complement(h, graph)
            assert abs(new - old) <= 1e-12, (n, k, seed, negated)
        assert ext.adjoint_formula_check(s)
        formula = ref.formula_graph(g_neg, ghat1).basis
        assert ref.adjoint_gap(h, formula) <= s.report.tol


@pytest.mark.parametrize("n, k", [(1, 0), (4, 1), (8, 5), (32, 16)])
def test_wrong_formula_graphs_fail_by_both_routes(n, k):
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, 3))
    h = ext.canonical_max_dissipative(s)
    g_neg, ghat1, ghat2 = ref.canonical_pieces(s)
    tol = s.report.tol
    wrong = {
        "g2 in place of g1": ref.formula_graph(g_neg, ghat2),
        "not negated": ref.formula_graph(g_neg, ghat1, negated=False),
        # dimensions adding to 2n - dim g1 < 2n
        "g1 piece dropped": ref.formula_graph(g_neg, sub.zero(2 * n)),
    }
    for name, graph in wrong.items():
        assert ref.adjoint_gap(h, graph.basis) > tol, name
        assert ref.adjoint_gap_by_complement(h, graph) > tol, name
    assert ref.adjoint_gap(h, wrong["g1 piece dropped"].basis) == np.inf
    # graphs of unequal dimension are at gap 1, up to the projectors' round-off
    dropped = ref.adjoint_gap_by_complement(h, wrong["g1 piece dropped"])
    assert abs(dropped - 1.0) <= 1e-12


def test_adjoint_formula_check_builds_no_adjoint_and_no_complement(monkeypatch):
    s = bd.canonical_system(rel.random_skew_symmetric(6, 2, 5))

    def refuse(*args, **kwargs):
        raise AssertionError("the adjoint formula check took a complement")

    monkeypatch.setattr(rel, "adjoint", refuse)
    monkeypatch.setattr(sub, "complement", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert ext.adjoint_formula_check(s)


def test_canonical_max_dissipative_is_built_once_per_system():
    s = bd.canonical_system(rel.random_skew_symmetric(5, 2, 11))
    assert ext.canonical_max_dissipative(s) is ext.canonical_max_dissipative(s)


def _sigma_min(m):
    return float(np.linalg.svd(m, compute_uv=False)[-1])


@settings(deadline=None, max_examples=40)
@given(params=relation_params, kseed=st.integers(0, 10**6))
def test_boundary_condition_has_full_row_rank(params, kseed):
    # the premise of the QR complement in _adjoint_portion: surjective
    # boundary maps bound sigma_min(K A - B) below for every admissible K
    n, k, seed = params
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed))
    rng = np.random.default_rng(kseed)
    d = s.g1.dim
    t = bd.system_to_triplet(s, random_unitary(d, rng))
    gammas = np.vstack([t.gamma1, t.gamma2])
    cases = [
        (s, random_unitary(d, rng), ext.system_unitary_extension),
        (t, random_unitary(d, rng), ext.triplet_unitary_extension),
        (t, random_contraction(d, rng), ext.extension_from_contraction),
    ]
    for data, kmat, build in cases:
        a, b, negated = ext._pair(data)
        condition = kmat @ a - b
        if d:
            if negated:
                bound = np.sqrt(2.0) * _sigma_min(gammas)
            else:
                bound = _sigma_min(np.vstack([s.f1, s.f2]))
            assert _sigma_min(condition) >= bound - 1e-12 * max(1.0, bound)
        # the graph is the Graph(H0*) basis times the SVD complement too
        kernel = ref.complement(condition.conj().T)
        expected = sub.Subspace(2 * n, data.adjoint_graph.basis @ kernel.basis)
        h = build(data, kmat)
        graph = rel.negate(h).graph if negated else h.graph
        assert sub.distance_at_most(graph, expected, 1e-12)


@settings(deadline=None, max_examples=40)
@given(params=relation_params, lseed=st.integers(0, 10**6))
def test_system_extension_properties(params, lseed):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    s = bd.canonical_system(h0)
    l = random_unitary(s.g1.dim, np.random.default_rng(lseed))
    h = ext.system_unitary_extension(s, l)
    assert rel.is_skew_self_adjoint(h, 1e-9)
    assert rel.extends(h, rel.negate(h0), 1e-9)
    assert sub.contains_subspace(s.adjoint_graph, h.graph, 1e-9)
    if l.size:
        assert np.max(np.abs(ext.system_unitary_readoff(s, h) - l)) <= 1e-8


@settings(deadline=None, max_examples=40)
@given(params=relation_params, lseed=st.integers(0, 10**6))
def test_triplet_extension_properties(params, lseed):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    s = bd.canonical_system(h0)
    t = bd.system_to_triplet(s, np.eye(s.g1.dim))
    l = random_unitary(t.g.dim, np.random.default_rng(lseed))
    h = ext.triplet_unitary_extension(t, l)
    assert rel.is_skew_self_adjoint(h, 1e-9)
    assert rel.extends(h, h0, 1e-9)
    # sigma involution: -H is a skew-self-adjoint restriction of H0*
    flipped = rel.negate(h)
    assert rel.is_skew_self_adjoint(flipped, 1e-9)
    assert sub.contains_subspace(s.adjoint_graph, flipped.graph, 1e-9)
    # (L - 1) Gamma1 + (L + 1) Gamma2 = L (Gamma1 + Gamma2) - (Gamma1 - Gamma2):
    # the unitary L selects the extension of the contraction K = L, and the
    # contraction read-off gives L back
    h_k = ext.extension_from_contraction(t, l)
    assert sub.distance_at_most(h_k.graph, h.graph, t.report.tol)
    k_back = ext.boundary_contraction_of(t, h)
    assert np.max(np.abs(k_back - l), initial=0.0) <= ROUNDTRIP_TOL


@settings(deadline=None, max_examples=30)
@given(params=relation_params, seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
def test_bridge_identity_random(params, seeds):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    s = bd.canonical_system(h0)
    rng0, rng1 = (np.random.default_rng(x) for x in seeds)
    l0 = random_unitary(s.g1.dim, rng0)
    l = random_unitary(s.g1.dim, rng1)
    assert ext.bridge_check(s, l0, l, ext.system_unitary_extension(s, l))


@settings(deadline=None, max_examples=30)
@given(params=deficient_params, pseed=st.integers(0, 10**6))
def test_phi_roundtrip_and_unitarity_equivalence(params, pseed):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    t = bd.system_to_triplet(bd.canonical_system(h0, 1e-8), np.eye(n - k))
    rng = np.random.default_rng(pseed)

    contraction = random_contraction(t.g.dim, rng, norm_cap=0.9)
    h = ext.extension_from_contraction(t, contraction)
    assert rel.is_dissipative(h, 1e-9)
    assert ext.is_maximal_dissipative(h, 1e-9)
    assert rel.extends(h, h0, 1e-9)
    kmat = ext.boundary_contraction_of(t, h)
    assert np.max(np.abs(kmat - contraction)) <= 1e-8
    assert not rel.is_skew_self_adjoint(h, 1e-8)
    assert ext.unitarity_equivalence_check(t, h, kmat)

    unitary = random_unitary(t.g.dim, rng)
    hu = ext.extension_from_contraction(t, unitary)
    assert rel.is_skew_self_adjoint(hu, 1e-8)
    assert ext.unitarity_equivalence_check(t, hu, ext.boundary_contraction_of(t, hu))


@settings(deadline=None, max_examples=40)
@given(params=relation_params)
def test_existence_and_canonical_extension_random(params):
    n, k, seed = params
    h0 = rel.random_skew_symmetric(n, k, seed)
    assert ext.existence_report(bd.canonical_system(h0)).agree
    h = ext.canonical_max_dissipative(bd.canonical_system(h0))
    assert rel.is_dissipative(h, 1e-9)
    assert ext.is_maximal_dissipative(h, 1e-9)
    assert rel.extends(h, rel.negate(h0), 1e-9)
    assert ext.adjoint_formula_check(bd.canonical_system(h0))


def scaled_f_system():
    """The canonical system of the zero relation with F doubled: surjective,
    but Omega = omega(F., F.) fails by a factor 4."""
    s = zero_system()
    return bd.BoundarySystem(
        base=s.base,
        adjoint_graph=s.adjoint_graph,
        g1=s.g1,
        g2=s.g2,
        f_matrix=2.0 * s.f_matrix,
    )


def zero_gamma2_triplet():
    """The zero-relation triplet with Gamma2 = 0: (Gamma1, Gamma2) is not
    surjective."""
    t = zero_triplet()
    return bd.BoundaryTriplet(
        base=t.base,
        adjoint_graph=t.adjoint_graph,
        g=t.g,
        gamma1=t.gamma1,
        gamma2=np.zeros_like(t.gamma2),
    )


def test_invalid_system_carries_its_failed_report():
    bad = scaled_f_system()
    assert not bad.report.ok
    assert bad.report == bd.verify_system(bad)
    assert not bad.f_matrix.flags.writeable
    assert zero_system().report.ok


def test_consumers_refuse_an_invalid_system():
    bad = scaled_f_system()
    h = ext.system_unitary_extension(zero_system(), np.array([[1.0]]))
    with pytest.raises(InvalidSystem):
        ext.system_unitary_extension(bad, np.array([[1.0]]))
    with pytest.raises(InvalidSystem):
        ext.system_unitary_readoff(bad, h)
    with pytest.raises(InvalidSystem):
        bd.system_to_triplet(bad, np.eye(1))


def test_consumers_refuse_an_invalid_triplet():
    bad = zero_gamma2_triplet()
    assert not bad.report.ok
    assert not (bad.gamma1.flags.writeable or bad.gamma2.flags.writeable)
    with pytest.raises(InvalidTriplet):
        ext.triplet_unitary_extension(bad, np.array([[1.0]]))
    with pytest.raises(InvalidTriplet):
        ext.extension_from_contraction(bad, np.array([[0.5]]))
    with pytest.raises(InvalidTriplet):
        ext.boundary_contraction_of(bad, mult_by(1j))
    with pytest.raises(InvalidTriplet):
        bd.triplet_to_system(bad)


def test_conversions_keep_the_verification_tolerance():
    h0 = rel.random_skew_symmetric(4, 2, seed=5)
    s = bd.canonical_system(h0, 1e-7)
    assert s.report.tol == 1e-7
    t = bd.system_to_triplet(s, np.eye(s.g1.dim))
    assert t.report.tol == 1e-7
    back = bd.triplet_to_system(t)
    assert back.report.tol == 1e-7
    assert bd.system_to_triplet(back, np.eye(s.g1.dim)).report.tol == 1e-7
