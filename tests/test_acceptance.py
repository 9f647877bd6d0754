"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance over
fixed-seed corpora and prints a single PASS line when it holds (run with
``pytest -s`` to see the lines).  Tolerances are pinned here and nowhere
else.
"""

import random
import time
from fractions import Fraction

import numpy as np

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import halfline as hl
from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import DimensionMismatch
from skewext.sampling import complex_gaussian, random_unitary

import reference as ref
from reference import random_contraction

RNG_BASE = 20_400


def _passed(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _random_relation(i: int) -> rel.Relation:
    """Arbitrary relation: a random graph subspace of random dimension."""
    rng = np.random.default_rng(RNG_BASE + i)
    n = int(rng.integers(1, 9))
    k = int(rng.integers(0, 2 * n + 1))
    graph = sub.span_matrix(complex_gaussian(2 * n, k, rng)) if k else sub.zero(2 * n)
    return rel.Relation(n, graph)


def _random_skew(i: int, n_max: int = 8, k_cap=None):
    rng = np.random.default_rng(RNG_BASE + 10_000 + i)
    n = int(rng.integers(1, n_max + 1))
    top = n if k_cap is None else min(n - 1, k_cap)
    k = int(rng.integers(0, top + 1))
    return rel.random_skew_symmetric(n, k, seed=RNG_BASE + 10_000 + i), rng


def _adjoint_brute_force(t: rel.Relation) -> rel.Relation:
    """Independent oracle: solve <x', y> = <x, y'> on a spanning set.

    Each graph basis vector (x, x') contributes one linear condition
    x'^H y - x^H y' = 0 on the stacked unknown (y, y'); the adjoint graph
    is the null space of the resulting condition matrix.
    """
    n = t.space_dim
    if t.graph_dim == 0:
        return ref.full_relation(n)
    x, xp = t.blocks()
    conditions = np.hstack([xp.conj().T, -x.conj().T])
    _, s, vh = np.linalg.svd(conditions, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * s[0]))
    basis = vh[rank:].conj().T
    return rel.Relation(n, sub.span_matrix(basis))


def test_criterion_1_adjoint_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        t = _random_relation(i)
        fast = rel.adjoint(t)
        brute = _adjoint_brute_force(t)
        worst = max(worst, sub.distance(fast.graph, brute.graph))
        assert sub.distance(fast.graph, brute.graph) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"200 relations, max graph distance {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_canonical_decomposition_and_system():
    worst_cross = 0.0
    worst_res = 0.0
    for i in range(200):
        h0, _ = _random_skew(i)
        pieces = bd.canonical_pieces(bd.canonical_system(h0))
        for a_idx, a in enumerate(pieces):
            for b in pieces[a_idx + 1 :]:
                cross = a.basis.conj().T @ b.basis
                if cross.size:
                    worst_cross = max(worst_cross, float(np.max(np.abs(cross))))
        assert worst_cross <= 1e-9
        assert sum(p.dim for p in pieces) == 2 * h0.space_dim - h0.graph_dim
        report = bd.verify_system(bd.canonical_system(h0))
        assert report.surjective and report.residual <= 1e-9
        worst_res = max(worst_res, report.residual)
    _passed(
        2,
        f"200 relations, max orthogonality defect {worst_cross:.2e}, "
        f"max identity residual {worst_res:.2e}",
    )


def test_criterion_3_unitary_parametrization():
    worst_sksa = 0.0
    worst_readoff = 0.0
    for i in range(200):
        h0, rng = _random_skew(i)
        s = bd.canonical_system(h0)
        l = random_unitary(s.g1.dim, rng)
        h = ext.system_unitary_extension(s, l)
        sksa_dist = sub.distance(h.graph, ref.neg_adjoint(h).graph)
        assert sksa_dist <= 1e-9
        worst_sksa = max(worst_sksa, sksa_dist)
        if l.size:
            err = float(np.max(np.abs(ext.system_unitary_readoff(s, h) - l)))
            assert err <= 1e-8
            worst_readoff = max(worst_readoff, err)
    _passed(
        3,
        f"200 pairs, max self-adjointness distance {worst_sksa:.2e}, "
        f"max read-off error {worst_readoff:.2e}",
    )


def test_criterion_4_conversion_roundtrip():
    worst = 0.0
    for i in range(200):
        h0, _ = _random_skew(i)
        s = bd.canonical_system(h0)
        eye = np.eye(s.g1.dim, dtype=complex)
        t = bd.system_to_triplet(s, eye)
        rebuilt = bd.triplet_to_system(t)
        back = bd.system_to_triplet(rebuilt, eye)
        if t.gamma1.size:
            err = float(
                max(
                    np.max(np.abs(back.gamma1 - t.gamma1)),
                    np.max(np.abs(back.gamma2 - t.gamma2)),
                )
            )
            assert err <= 1e-10
            worst = max(worst, err)
    _passed(4, f"200 triplets, max boundary-map error {worst:.2e}")


def test_criterion_5_bridge_identity():
    worst = 0.0
    for i in range(200):
        h0, rng = _random_skew(i)
        s = bd.canonical_system(h0)
        l0 = random_unitary(s.g1.dim, rng)
        l = random_unitary(s.g1.dim, rng)
        lhs = ext.system_unitary_extension(s, l)
        triplet = bd.system_to_triplet(s, l0)
        rhs = rel.negate(ext.triplet_unitary_extension(triplet, l0.conj().T @ l))
        dist = sub.distance(lhs.graph, rhs.graph)
        assert dist <= 1e-9
        worst = max(worst, dist)
    _passed(5, f"200 instances, max graph distance {worst:.2e}")


def test_criterion_6_contraction_classification():
    misclassified = 0
    worst_roundtrip = 0.0
    for i in range(100):
        # k is capped at n - 1 so the boundary space is nontrivial
        h0, rng = _random_skew(i, n_max=6, k_cap=5)
        t = bd.system_to_triplet(
            bd.canonical_system(h0), np.eye(h0.space_dim - h0.graph_dim)
        )

        unitary = random_unitary(t.g.dim, rng)
        h_unitary = ext.extension_from_contraction(t, unitary)
        if not rel.is_skew_self_adjoint(h_unitary, 1e-8):
            misclassified += 1
        worst_roundtrip = max(
            worst_roundtrip, float(np.max(np.abs(ext.boundary_contraction_of(t, h_unitary) - unitary)))
        )

        strict = random_contraction(t.g.dim, rng, norm_cap=0.9)
        h_strict = ext.extension_from_contraction(t, strict)
        if rel.is_skew_self_adjoint(h_strict, 1e-8):
            misclassified += 1
        worst_roundtrip = max(
            worst_roundtrip, float(np.max(np.abs(ext.boundary_contraction_of(t, h_strict) - strict)))
        )
    assert misclassified == 0
    assert worst_roundtrip <= 1e-8
    _passed(
        6,
        f"100 unitaries + 100 strict contractions, 0 misclassifications, "
        f"max contraction round-trip error {worst_roundtrip:.2e}",
    )


def test_criterion_7_canonical_extension_and_adjoint_formula():
    worst_eig = -np.inf
    for i in range(200):
        h0, _ = _random_skew(i)
        h = ext.canonical_max_dissipative(bd.canonical_system(h0))
        x, xp = h.blocks()
        if h.graph_dim:
            eig = float(np.max(np.linalg.eigvalsh(xp.conj().T @ x + x.conj().T @ xp)))
        else:
            eig = 0.0
        assert eig <= 1e-10
        worst_eig = max(worst_eig, eig)
        range_dim = sub.span_matrix(x - xp, tol=1e-10).dim if h.graph_dim else 0
        assert range_dim == h.space_dim
        assert ext.adjoint_formula_check(bd.canonical_system(h0))
    _passed(7, f"200 relations, max dissipativity eigenvalue {worst_eig:.2e}")


def _halfline_corpus():
    """50 deterministic family members, including the resonant exponential
    and trace-zero cases."""
    corpus = [hl.exp_decay(1), hl.term(1, 1, 1), hl.exp_decay(2)]
    rnd = random.Random(99)
    rates = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 3)]
    while len(corpus) < 50:
        terms = {}
        for _ in range(rnd.randint(1, 4)):
            key = (rnd.randint(0, 3), rnd.choice(rates))
            terms[key] = hl.QC(
                Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)),
                Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)),
            )
        corpus.append(hl.ExpPoly(terms))
    return corpus


def test_criterion_8_halfline_exactness():
    start = time.perf_counter()
    corpus = _halfline_corpus()

    for idx, f in enumerate(corpus):
        g = corpus[(idx + 7) % len(corpus)]
        lhs, rhs = hl.green_identity(f, g)
        assert lhs == rhs  # exact rational equality, zero tolerance

    g1_basis, g2_basis = hl.deficiency_exact()
    assert (len(g1_basis), len(g2_basis)) == (1, 0)

    try:
        hl.triplet_attempt()
        raised = False
    except DimensionMismatch as exc:
        raised = (exc.g1_dim, exc.g2_dim) == (1, 0)
    assert raised

    assert hl.resolvent_solve(hl.exp_decay(1)) == hl.term(1, 1, 1)
    for f in corpus:
        u = hl.resolvent_solve(f)
        assert (u + u.derivative()) == f
        assert u.eval0().is_zero()

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(8, f"50-case corpus all exact, indices (1,0), {elapsed:.2f}s")


def test_criterion_9_existence_coherence():
    for i in range(200):
        h0, _ = _random_skew(i)
        report = ext.existence_report(bd.canonical_system(h0))
        assert report.agree
        assert report.equal_indices  # finite-dimensional substrate
    summary = hl.existence_summary()
    assert summary["indices"] == (1, 0)
    assert not any(
        summary[key]
        for key in (
            "equal_indices",
            "has_sksa_extension",
            "triplet_constructible",
            "system_equal_dims",
        )
    )
    _passed(9, "200 finite-dim reports agree; half-line model reports all false")
