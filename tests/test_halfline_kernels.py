"""The integer half-line derivative and resolvent against the term-wise
references.

``halfline._first_order`` (a f + b f': the derivative, -f' and the
resolvent check u + u') and ``halfline.resolvent_solve`` read a function's
integer form and write the output's, one integer numerator per term over
one common denominator; the ``reference`` module's term-wise
versions add one exact term at a time.  Both must agree exactly
(``Fraction``s are canonical), on the resonant rate 1, on rates below 1 (a
negative gap to the resonant rate), on degrees up to 32, on rate
denominators up to the cap and on zero polynomials, and a sum that cancels
must drop its key.  Every kernel output, and every function the checked
constructors build, is in the canonical integer form, and its lazy
``items()`` view equals the term-wise result in canonical order.  The
kernels build at most one ``RationalComplex`` per output term, and -f' is
built as one ``ExpPoly``.  The resolvent check must fail on a solution
with one coefficient changed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    assert_canonical,
    derivative_terms,
    derivative_termwise,
    exppoly_to_json,
    first_order_terms,
    first_order_termwise,
    random_exppoly,
    resolvent_terms,
    resolvent_termwise,
    sorted_terms,
)
from skewext import formats as fmt
from skewext import halfline as hl
from skewext.halfline import ExpPoly, exp_decay, term
from skewext.halfline import RationalComplex as QC

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
coefficients = st.one_of(
    st.builds(QC, rationals, rationals),
    st.builds(QC, st.just(0), rationals),  # purely imaginary
    st.builds(QC, rationals, st.just(0)),
)
# 1 is the resonant rate of the resolvent; the rates below it have a
# negative gap r = p - q
small_rates = st.sampled_from(
    [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4),
     Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
)
capped_rates = st.builds(
    Fraction, st.integers(1, 10**7), st.integers(1, hl.MAX_RATE_DENOMINATOR)
)


@st.composite
def capped_rates_below_one(draw):
    q = draw(st.integers(2, hl.MAX_RATE_DENOMINATOR))
    return Fraction(draw(st.integers(1, q - 1)), q)


rates = st.one_of(small_rates, capped_rates, capped_rates_below_one())


@st.composite
def exppolys(draw, max_terms=8):
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.one_of(st.integers(0, 3), st.integers(0, hl.MAX_DEGREE)))
        out[(degree, draw(rates))] = draw(coefficients)
    return ExpPoly(out)


@settings(deadline=None, max_examples=150)
@given(f=exppolys())
def test_derivative_equals_termwise_reference(f):
    assert f.derivative() == derivative_termwise(f)


@settings(deadline=None, max_examples=150)
@given(f=exppolys())
def test_resolvent_equals_termwise_reference(f):
    assert hl.resolvent_solve(f) == resolvent_termwise(f)


@settings(deadline=None, max_examples=60)
@given(f=exppolys())
def test_negated_derivative_equals_termwise_reference(f):
    expected = -derivative_termwise(f)
    assert hl.adjoint_apply(f) == expected
    f0 = f - exp_decay(1).scale(f.eval0())
    assert hl.canonical_extension_apply(f0) == -derivative_termwise(f0)


@pytest.mark.parametrize("a, b", [(0, 1), (0, -1), (1, 1)])
@settings(deadline=None, max_examples=100)
@given(f=exppolys())
def test_first_order_kernel_equals_termwise_reference(a, b, f):
    assert hl._first_order(f, a, b) == first_order_termwise(f, a, b)


@settings(deadline=None, max_examples=60)
@given(
    f=exppolys(),
    key=st.tuples(st.integers(0, 3), small_rates),
    delta=coefficients.filter(lambda c: not c.is_zero()),
)
def test_resolvent_check_fails_on_a_changed_coefficient(f, key, delta):
    u = hl.resolvent_solve(f)
    assert u.plus_derivative() == f and u.eval0().is_zero()
    changed = u + term(*key, delta.re, delta.im)
    # (1 + d/dt) e^(-t) = 0, so only the trace sees a change at (0, 1)
    assert (changed.plus_derivative() == f) == (key == (0, 1))
    assert changed.eval0().is_zero() == (key[0] != 0)


def test_kernels_on_degree_32_at_the_resonant_rate():
    f = term(32, 1, 3, -2) + term(32, Fraction(1, 2), 1) + term(32, 2, 0, 1)
    u = hl.resolvent_solve(f)
    assert u == resolvent_termwise(f)
    assert max(k for k, _ in u.terms) == hl.MAX_DEGREE + 1
    assert u.derivative() == derivative_termwise(u)
    assert u + u.derivative() == f


def test_kernels_on_zero_polynomials():
    assert ExpPoly().derivative() == ExpPoly()
    assert hl.resolvent_solve(ExpPoly()) == ExpPoly()
    assert hl.adjoint_apply(ExpPoly()) == ExpPoly()


def test_derivative_cancellation_drops_the_key():
    # d/dt (t + 1) e^(-t) = -t e^(-t): the degree-zero sum cancels
    f = term(1, 1, 1) + exp_decay(1)
    d = f.derivative()
    assert d == derivative_termwise(f) == term(1, 1, -1)
    assert (0, Fraction(1)) not in d.terms


def test_resolvent_cancellation_drops_the_keys():
    # u = -t e^(-2t) solves u + u' = (t - 1) e^(-2t) with u(0) = 0; both
    # degree-zero sums, at rate 2 and at the resonant rate 1, cancel
    f = term(1, 2, 1) + term(0, 2, -1)
    u = hl.resolvent_solve(f)
    assert u == resolvent_termwise(f) == term(1, 2, -1)
    assert set(u.terms) == {(1, Fraction(2))}


def _counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counting(self, *args):
        calls.append(None)
        original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("kernel", ["derivative", "resolvent_solve"])
def test_kernels_build_one_rational_complex_per_output_term(kernel, monkeypatch):
    f = random_exppoly(random.Random(60), 60)
    apply = ExpPoly.derivative if kernel == "derivative" else hl.resolvent_solve
    out_terms = len(apply(f).terms)
    calls = _counting(monkeypatch, hl.RationalComplex, "__init__")
    apply(f)
    # the term-wise kernels build several per (term, degree) step
    assert len(calls) <= out_terms + 1


@pytest.mark.parametrize("apply", [hl.adjoint_apply, hl.canonical_extension_apply])
def test_negated_derivative_builds_one_exppoly(apply, monkeypatch):
    f = random_exppoly(random.Random(5), 60)
    f0 = f - exp_decay(1).scale(f.eval0())
    # an ExpPoly is built through __init__ or through the trusted
    # _from_integers
    calls = _counting(monkeypatch, ExpPoly, "__init__")
    trusted = ExpPoly._from_integers

    def counting_trusted(den, groups):
        calls.append(None)
        return trusted(den, groups)

    monkeypatch.setattr(ExpPoly, "_from_integers", staticmethod(counting_trusted))
    apply(f0)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "apply, f",
    [
        (ExpPoly.derivative, term(1, 1, 1) + exp_decay(1)),
        (hl.resolvent_solve, term(1, 2, 1) + term(0, 2, -1)),
    ],
)
def test_cancelled_sums_build_no_rational_complex(apply, f, monkeypatch):
    out_terms = len(apply(f).terms)
    calls = _counting(monkeypatch, hl.RationalComplex, "__init__")
    apply(f)
    # the kernels build none; the count is the one-term view that the
    # test suite's trusted-constructor guard builds
    assert len(calls) <= out_terms == 1


def _sum_terms(*term_dicts) -> dict:
    out = {}
    for terms in term_dicts:
        for key, coeff in terms.items():
            total = out.pop(key, QC()) + coeff
            if not total.is_zero():
                out[key] = total
    return out


@settings(deadline=None, max_examples=100)
@given(f=exppolys(), g=exppolys(), c=coefficients)
def test_kernel_outputs_are_canonical_and_viewed_termwise(f, g, c):
    f_terms, g_terms = f.terms, g.terms
    f0 = f - exp_decay(1).scale(f.eval0())
    neg_g = {key: -coeff for key, coeff in g_terms.items()}
    cases = [
        (f.derivative(), derivative_terms(f)),
        (f.plus_derivative(), first_order_terms(f, 1, 1)),
        (hl.adjoint_apply(f), first_order_terms(f, 0, -1)),
        (hl.canonical_extension_apply(f0), first_order_terms(f0, 0, -1)),
        (hl.resolvent_solve(f), resolvent_terms(f)),
        (-g, neg_g),
        (f.scale(c), {} if c.is_zero() else {k: c * v for k, v in f_terms.items()}),
        (f + g, _sum_terms(f_terms, g_terms)),
        (f - g, _sum_terms(f_terms, neg_g)),
        (fmt.exppoly_from_json(exppoly_to_json(f)), f_terms),
    ]
    for out, terms in cases:
        assert_canonical(*out.integer_form())
        assert out.items() == sorted_terms(terms)
        assert out.eval0() == sum((v for (k, _), v in terms.items() if k == 0), QC())


@settings(deadline=None, max_examples=100)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, hl.MAX_DEGREE), rates), coefficients, max_size=8
    )
)
def test_checked_constructors_are_canonical_and_viewed_termwise(terms):
    nonzero = {key: c for key, c in terms.items() if not c.is_zero()}
    records = [
        {"k": k, "lambda": str(lam), "re": str(c.re), "im": str(c.im)}
        for (k, lam), c in terms.items()
    ]
    for f in (ExpPoly(terms), fmt.exppoly_from_json(records)):
        assert_canonical(*f.integer_form())
        assert f.items() == sorted_terms(nonzero)
