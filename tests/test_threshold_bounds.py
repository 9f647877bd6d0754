"""The bounds that decide threshold checks without a factorization, in the
band near each threshold where they cannot decide.

Each check of ``linalg`` first puts its question to a bound: the Frobenius
norm for a spectral norm, the co-isometry defect ||M M^H - I||_F for
unitarity and full row rank, and the Gershgorin row bound for the largest
eigenvalue of Omega.  Here every input is one the bound cannot decide, on
both sides of the threshold, and each verdict is held against the exact
route of ``reference``; inputs far from every threshold, such as the
canonical system of a random relation, are decided by the bounds.
"""

import numpy as np
import pytest

from skewext import boundary as bd
from skewext import extensions as ext
from skewext import relation as rel
from skewext import subspace as sub
from skewext.linalg import (
    coisometry_defect,
    frobenius_bound,
    full_row_rank_certified,
    gershgorin_bound,
    is_unitary,
    matrix_2norm,
    norm_at_most,
)
from skewext.sampling import random_unitary
from skewext.tolerances import ORTH_TOL, UNITARY_TOL

import reference as ref
from reference import random_contraction

# ------------------------------------------------------- the spectral norm


@pytest.mark.parametrize("r", [2, 4, 9])
@pytest.mark.parametrize("c, within", [(0.9, True), (1.0, True), (1.1, False)])
def test_norm_of_c_times_identity_between_tol_and_its_frobenius_norm(r, c, within):
    # ||c I_r||_2 = c tol <= tol < c tol sqrt(r) = ||c I_r||_F for c <= 1
    tol = ORTH_TOL
    m = c * tol * np.eye(r)
    assert frobenius_bound(m) > tol
    assert norm_at_most(m, tol) == (ref.matrix_2norm_by_svd(m) <= tol) == within


def test_a_frobenius_norm_at_the_threshold_defers_to_the_spectral_norm():
    # on a rank-one matrix the two norms agree but for round-off, and about
    # one in four computed spectral norms lands above the computed Frobenius
    # norm: at tol = that Frobenius norm only the round-off margin keeps the
    # bound from passing what the spectral norm fails
    rng = np.random.default_rng(0)
    above = 0
    for _ in range(200):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        m = np.outer(u, v.conj()) * 1e-10
        tol = float(np.sqrt(np.vdot(m, m).real))
        exact = matrix_2norm(m) <= tol
        above += not exact
        assert norm_at_most(m, tol) == exact
    assert above >= 20


@pytest.mark.parametrize("c, within", [(0.9, True), (1.1, False)])
def test_distance_of_subspaces_between_tol_and_its_frobenius_norm(c, within):
    # t turns each of four basis vectors of s by the angle theta in a plane of
    # its own, so the residual is sin(theta) times four orthonormal columns
    tol = ORTH_TOL
    sine = c * tol
    eye = np.eye(8)
    s = sub.Subspace(8, eye[:, :4])
    t = sub.Subspace(8, np.sqrt(1 - sine**2) * eye[:, :4] + sine * eye[:, 4:])
    assert frobenius_bound(sub._gap_residual(s, t)) > tol
    expected = ref.distance_by_projectors(s, t) <= tol
    assert sub.distance_at_most(s, t, tol) == expected == within
    # unequal dimensions are at distance 1, which only a tolerance of 1 passes
    assert not sub.distance_at_most(s, sub.Subspace(8, eye[:, :3]), tol)
    assert sub.distance_at_most(s, sub.Subspace(8, eye[:, :3]), 1.0)


# ---------------------------------------------------------------- unitarity


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("c, unitary", [(0.9, True), (-0.9, True), (1.1, False)])
def test_unitarity_with_every_singular_value_near_the_tolerance(real, c, unitary):
    # all sigma = 1 + c UNITARY_TOL on C^4: the defect, 2 |sigma^2 - 1|, is
    # about 2 |c| UNITARY_TOL, so the bound cannot decide either side
    rng = np.random.default_rng(4)
    u = random_unitary(4, rng)
    if real:
        u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    m = (1 + c * UNITARY_TOL) * u
    assert coisometry_defect(m) > UNITARY_TOL
    assert is_unitary(m) == ref.is_unitary_by_svd(m) == unitary


def test_unitarity_keeps_real_input_real(monkeypatch):
    seen = []
    original = np.linalg.svd

    def recording(m, *args, **kwargs):
        seen.append(m.dtype)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    m = (1 + 0.9 * UNITARY_TOL) * np.eye(4, dtype=int)
    assert is_unitary(m) and is_unitary(np.eye(3, dtype=int))
    assert seen == [np.float64]


# ------------------------------------------------------------ full row rank


def _with_f(s: bd.BoundarySystem, f: np.ndarray) -> bd.BoundarySystem:
    return bd.BoundarySystem(s.base, s.adjoint_graph, s.g1, s.g2, f, s.report.tol)


@pytest.mark.parametrize(
    "rows, surjective",
    [
        # diag(1, 1e-6) [0 | I]: full row rank, not a co-isometry
        (np.diag([1.0, 1e-6]), True),
        # both rows alike: rank one
        (np.ones((2, 2)), False),
        # a row below the relative rank cut
        (np.diag([1.0, 1e-12]), False),
    ],
)
def test_row_rank_of_boundary_maps_the_bound_cannot_decide(rows, surjective):
    s = bd.canonical_system(rel.random_skew_symmetric(2, 1, seed=3))
    assert s.f_matrix.shape == (2, 3) and full_row_rank_certified(s.f_matrix)
    f = rows @ s.f_matrix
    assert not full_row_rank_certified(f)
    assert _with_f(s, f).report.surjective == ref.has_full_row_rank_by_svd(f)
    assert _with_f(s, f).report.surjective == surjective


@pytest.mark.parametrize("n, k", [(1, 0), (4, 1), (8, 4), (16, 5)])
def test_canonical_and_triplet_maps_are_certified_co_isometries(n, k):
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed=n + k))
    assert full_row_rank_certified(s.f_matrix)
    l0 = random_unitary(s.g1.dim, np.random.default_rng(n))
    t = bd.system_to_triplet(s, l0)
    assert full_row_rank_certified(np.vstack([t.gamma1, t.gamma2]))
    assert full_row_rank_certified(bd.triplet_to_system(t).f_matrix)
    # more rows than columns: M M^H has a zero eigenvalue
    assert coisometry_defect(np.ones((3, 2))) >= 1.0


# ------------------------------------------------- the largest eigenvalue


def relation_with_omega(omega: np.ndarray) -> rel.Relation:
    """A relation on C^d whose orthonormal d-dimensional graph basis
    (X; X') has the form Omega = ``omega`` (Hermitian, spectrum in
    (-1, 1)): with A = X + X' = sqrt(I + Omega) and
    C = X - X' = sqrt(I - Omega), A^H A + C^H C = 2 I and
    A^H A - C^H C = 2 Omega."""
    mu, v = np.linalg.eigh(omega)
    a = (v * np.sqrt(1 + mu)) @ v.conj().T
    c = (v * np.sqrt(1 - mu)) @ v.conj().T
    d = omega.shape[0]
    return rel.Relation(d, sub._graph(np.vstack([a + c, a - c]) / 2))


@pytest.mark.parametrize("tol", [1e-3, 0.25])
@pytest.mark.parametrize("side, dissipative", [(-1, True), (1, False)])
def test_dissipativity_with_the_top_eigenvalue_near_two_tol(tol, side, dissipative):
    # lambda_max = 2 tol (1 +- 1e-6), mixed by a unitary with eigenvalues
    # of both signs, so every Gershgorin row bound exceeds it
    top = 2 * tol * (1 + side * 1e-6)
    v = random_unitary(4, np.random.default_rng(11))
    omega = (v * np.array([top, -0.5, -0.1, 0.3 * top])) @ v.conj().T
    h = relation_with_omega(omega)
    assert abs(np.linalg.eigvalsh(rel._omega(h.graph))[-1] - top) <= 1e-13
    assert h._omega_top_bound > 2 * tol
    assert rel.is_dissipative(h, tol) == ref.is_dissipative_by_eigensolve(h, tol)
    assert rel.is_dissipative(h, tol) == dissipative
    # d = n: lambda_n is the top eigenvalue, far below the range cut
    assert ext.is_maximal_dissipative(h, tol) == dissipative
    assert ref.is_maximal_dissipative_by_svd(h, tol) == dissipative


@pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (6, 3), (9, 4)])
def test_omega_of_strict_contraction_extensions(n, k):
    # the extension holds Graph(H0), so Omega has the top eigenvalue 0 and
    # negative ones, mixed by the basis the complement gives
    rng = np.random.default_rng(n * k)
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed=n + k))
    t = bd.system_to_triplet(s, random_unitary(s.g1.dim, rng))
    h = ext.extension_from_contraction(t, random_contraction(s.g1.dim, rng, 0.9))
    assert h._omega_top_bound > 2 * ORTH_TOL
    assert rel.is_dissipative(h) == ref.is_dissipative_by_eigensolve(h) is True
    assert ext.is_maximal_dissipative(h) == ref.is_maximal_dissipative_by_svd(h)
    assert ext.is_maximal_dissipative(h)


def test_gershgorin_bound_of_diagonal_and_mixed_matrices():
    # on a diagonal matrix the bound is the largest entry, padded
    h = np.diag([-1.0, 0.25, 2e-9])
    assert 0.25 <= gershgorin_bound(h) <= 0.25 + 1e-14
    # on a Hermitian one it bounds the largest eigenvalue from above
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a + a.conj().T
        assert gershgorin_bound(h) >= np.linalg.eigvalsh(h)[-1]


# ---------------------------------------------- certified on the pipelines


@pytest.mark.parametrize("n, k", [(1, 0), (3, 3), (8, 3), (32, 16), (64, 32)])
def test_canonical_checks_are_decided_by_their_bounds(n, k):
    s = bd.canonical_system(rel.random_skew_symmetric(n, k, seed=n * k + 1))
    h = ext.canonical_max_dissipative(s)
    tol = s.report.tol
    g_neg, ghat1, ghat2 = ref.canonical_pieces(s)
    gap = rel._adjoint_gap_matrix(s.base, s.adjoint_graph.basis)
    formula = ref.formula_graph(g_neg, ghat1).basis
    assert frobenius_bound(gap) <= tol
    assert frobenius_bound(rel._adjoint_gap_matrix(h, formula)) <= tol
    assert full_row_rank_certified(s.f_matrix)
    assert h._omega_top_bound <= 2 * tol
    assert rel.is_dissipative(h, tol) and ext.is_maximal_dissipative(h, tol)
    assert "_omega_eigenvalues" not in vars(h)
