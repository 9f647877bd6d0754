from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewext import formats as fmt
from skewext import halfline as hl
from skewext.errors import DimensionMismatch, TraceNotZero
from skewext.halfline import QC, ExpPoly, exp_decay, term

HALF = Fraction(1, 2)

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
rates = st.sampled_from([Fraction(1), Fraction(2), HALF, Fraction(3), Fraction(5, 3)])


@st.composite
def exppolys(draw, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    out = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, 3)), draw(rates))
        out[key] = QC(draw(rationals), draw(rationals))
    return ExpPoly(out)


def test_rational_complex_arithmetic():
    z = QC(1, 2) * QC(3, -1)
    assert z == QC(5, 5)
    assert QC(1, 2).conj() == QC(1, -2)
    assert (QC(1, 1) - QC(1, 1)).is_zero()


def test_derivative_of_exp():
    assert exp_decay(1).derivative() == -exp_decay(1)


def test_derivative_product_rule():
    assert term(1, 1, 1).derivative() == exp_decay(1) - term(1, 1, 1)


def test_eval0_picks_constant_terms():
    f = term(1, 1, 1) + term(0, 2, 3)
    assert f.eval0() == QC(3)


def test_term_caps():
    # the degree cap limits input functions, so the decoder enforces it
    with pytest.raises(ValueError):
        fmt.exppoly_from_json([{"k": 33, "lambda": "1", "re": "1", "im": "0"}])
    with pytest.raises(ValueError):
        term(0, -1, 1)
    with pytest.raises(ValueError):
        term(0, Fraction(1, 10**7), 1)


def test_inner_exp_with_itself():
    assert hl.inner(exp_decay(1), exp_decay(1)) == QC(HALF)


def test_inner_t_exp_with_exp():
    assert hl.inner(term(1, 1, 1), exp_decay(1)) == QC(Fraction(1, 4))


@settings(deadline=None, max_examples=50)
@given(f=exppolys(), g=exppolys())
def test_inner_hermitian_symmetry(f, g):
    assert hl.inner(f, g) == hl.inner(g, f).conj()


def test_green_identity_exp():
    lhs, rhs = hl.green_identity(exp_decay(1), exp_decay(1))
    assert lhs == rhs == QC(1)


def test_green_identity_trace_zero_first_argument():
    f = term(1, 1, 1)  # t e^-t has trace zero
    for g in (exp_decay(1), term(2, 3, 1, 1), term(0, 2, -2, 5)):
        lhs, rhs = hl.green_identity(f, g)
        assert rhs.is_zero()
        assert lhs == rhs


def test_green_identity_mixed_rates():
    lhs, rhs = hl.green_identity(exp_decay(2), exp_decay(1))
    assert lhs == rhs == QC(1)


@settings(deadline=None, max_examples=80)
@given(f=exppolys(), g=exppolys())
def test_green_identity_exact_on_random_instances(f, g):
    lhs, rhs = hl.green_identity(f, g)
    assert lhs == rhs


@settings(deadline=None, max_examples=50)
@given(f=exppolys(), g=exppolys())
def test_minimal_operator_skew_symmetry(f, g):
    # trace-zero members pair to zero: <f', g> + <f, g'> = 0 exactly
    f0 = f - exp_decay(1).scale(f.eval0())
    g0 = g - exp_decay(1).scale(g.eval0())
    assert f0.eval0().is_zero() and g0.eval0().is_zero()
    total = hl.inner(f0.derivative(), g0) + hl.inner(f0, g0.derivative())
    assert total.is_zero()


def test_deficiency_exact():
    g1_basis, g2_basis = hl.deficiency_exact()
    assert g1_basis == [exp_decay(1)]
    assert g2_basis == []


def test_deficiency_solver_reports_exclusion():
    report = hl.solve_adjoint_eigen(-1)
    assert report.basis == ()
    assert report.excluded_rate == Fraction(-1)
    assert "-1" in report.message()
    ok = hl.solve_adjoint_eigen(1)
    assert ok.basis == (exp_decay(1),)
    assert ok.excluded_rate is None


def test_canonical_F_of_exp():
    bv = hl.canonical_F(exp_decay(1))
    assert bv.g1_coefficient == QC(1)
    assert bv.g1_basis_norm_sq == HALF
    assert bv.f2 == ()
    # boundary form equals the symmetric-form side exactly
    lhs, _ = hl.green_identity(exp_decay(1), exp_decay(1))
    assert hl.boundary_form(exp_decay(1), exp_decay(1)) == lhs == QC(1)


def test_canonical_F_trace_zero():
    assert hl.canonical_F(term(1, 1, 1)).g1_coefficient.is_zero()


def test_canonical_F_surjectivity():
    c = QC(Fraction(-7, 3), Fraction(2, 5))
    assert hl.canonical_F(exp_decay(1).scale(c)).g1_coefficient == c


@settings(deadline=None, max_examples=60)
@given(f=exppolys(), g=exppolys())
def test_canonical_system_identity_exact(f, g):
    lhs, _ = hl.green_identity(f, g)
    assert hl.boundary_form(f, g) == lhs


@settings(deadline=None, max_examples=40)
@given(f=exppolys())
def test_trace_decomposition_is_exact(f):
    remainder = f - exp_decay(1).scale(f.eval0())
    assert remainder.eval0().is_zero()


def test_triplet_attempt_always_raises():
    with pytest.raises(DimensionMismatch) as info:
        hl.triplet_attempt()
    assert (info.value.g1_dim, info.value.g2_dim) == (1, 0)


def test_canonical_extension_apply():
    assert hl.canonical_extension_apply(term(1, 1, 1)) == -exp_decay(1) + term(1, 1, 1)
    assert hl.canonical_extension_apply(term(1, 2, 1)) == -exp_decay(2) + term(
        1, 2, 2
    )
    with pytest.raises(TraceNotZero):
        hl.canonical_extension_apply(exp_decay(1))


@settings(deadline=None, max_examples=50)
@given(f=exppolys())
def test_extension_is_conservative_on_domain(f):
    f0 = f - exp_decay(1).scale(f.eval0())
    image = hl.canonical_extension_apply(f0)
    assert hl.inner(image, f0).re == 0


def test_resolvent_simple_case():
    u = hl.resolvent_solve(exp_decay(2))
    assert u == exp_decay(1) - exp_decay(2)
    assert (u + u.derivative()) == exp_decay(2)
    assert u.eval0().is_zero()


def test_resolvent_resonant_case():
    assert hl.resolvent_solve(exp_decay(1)) == term(1, 1, 1)


def test_resolvent_injective_on_family():
    assert hl.resolvent_solve(ExpPoly()).is_zero()
    assert not hl.resolvent_solve(term(2, 3, 1, 1)).is_zero()


@settings(deadline=None, max_examples=80)
@given(f=exppolys())
def test_resolvent_is_right_inverse_exactly(f):
    u = hl.resolvent_solve(f)
    assert (u + u.derivative()) == f
    assert u.eval0().is_zero()


def test_adjoint_injectivity_examples():
    strict = hl.adjoint_injectivity_check(exp_decay(1))
    assert strict.value == 1 and strict.norm_sq == HALF
    assert strict.holds and not strict.equality

    tight = hl.adjoint_injectivity_check(term(1, 1, 1))
    assert tight.value == tight.norm_sq == Fraction(1, 4)
    assert tight.holds and tight.equality and tight.g1_component_zero

    zero = hl.adjoint_injectivity_check(ExpPoly())
    assert zero.value == zero.norm_sq == 0 and zero.holds


@settings(deadline=None, max_examples=60)
@given(g=exppolys())
def test_adjoint_injectivity_inequality_on_random_instances(g):
    report = hl.adjoint_injectivity_check(g)
    assert report.holds
    assert report.equality == report.g1_component_zero


def test_existence_summary_all_false():
    summary = hl.existence_summary()
    assert summary["indices"] == (1, 0)
    assert not summary["equal_indices"]
    assert not summary["has_sksa_extension"]
    assert not summary["triplet_constructible"]
    assert not summary["system_equal_dims"]


# a term's key is checked also when its coefficient is zero
BAD_ZERO_TERMS = [
    {(0, Fraction(-1)): QC(0), (1, Fraction(1)): QC(1)},
    {(-3, Fraction(1)): QC(0)},
    {(0, Fraction(1, 10**7)): QC(0)},
]


@pytest.mark.parametrize("terms", BAD_ZERO_TERMS)
def test_zero_coefficient_term_key_is_checked(terms):
    with pytest.raises(ValueError):
        ExpPoly(terms)


@pytest.mark.parametrize(
    "terms, key",
    [
        ({(0, "1/2"): 1, (0, Fraction(1, 2)): 1}, "(0, Fraction(1, 2))"),
        # digits past the int-to-str limit are written in blocks
        ({(10**5000, 1): 1, (10**5000, "2/2"): 1},
         "(1" + "0" * 5000 + ", Fraction(1, 1))"),
    ],
    ids=["half", "5001-digit degree"],
)
def test_duplicate_key_message_names_the_rate_as_a_fraction(terms, key):
    # two spellings of one rate are one key, named as (k, Fraction(p, q))
    with pytest.raises(ValueError) as info:
        ExpPoly(terms)
    assert str(info.value) == f"duplicate term key {key}"


def test_boolean_degree_is_rejected():
    # a boolean degree would print as t^True and encode as "k": true,
    # which the decoder rejects
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        ExpPoly({(True, Fraction(2)): QC(1)})
    with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
        ExpPoly({(False, Fraction(2)): QC(1)})


def test_existence_booleans_are_computed_independently(monkeypatch):
    # with the deficiency solver reporting (1, 1), only the index boolean
    # may follow it: the boundary space is still C^1 with g2 block empty,
    # and still holds no subspace equal to its own orthogonal
    monkeypatch.setattr(hl, "deficiency_exact", lambda: ([exp_decay(1)], [exp_decay(1)]))
    summary = hl.existence_summary()
    assert summary["indices"] == (1, 1)
    assert summary["equal_indices"]
    assert not summary["has_sksa_extension"]
    assert not summary["system_equal_dims"]
