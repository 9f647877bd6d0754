"""The grouped half-line inner product against the term-wise reference.

``halfline.inner`` sums integer numerators grouped by rate sum and degree
over one denominator; ``reference.inner_termwise`` adds one exact term per
pair.  Both must agree exactly (``Fraction``s are canonical), including on
colliding rate sums, the resonant rate 1, degree-33 resolvent outputs,
zero polynomials, purely imaginary coefficients and rate denominators up
to the cap.  The kernel also builds a constant number of
``RationalComplex`` values, however many term pairs it sums.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import inner_termwise, random_exppoly
from skewext import halfline as hl
from skewext.halfline import QC, ExpPoly, exp_decay, term

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
coefficients = st.one_of(
    st.builds(QC, rationals, rationals),
    st.builds(QC, st.just(0), rationals),  # purely imaginary
    st.builds(QC, rationals, st.just(0)),
)
# pairs of these share rate sums (1/2 + 3/2 = 1 + 1 = 2/3 + 4/3), and 1 is
# the resonant rate of the resolvent
colliding_rates = st.sampled_from(
    [Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(2), Fraction(5, 2),
     Fraction(2, 3), Fraction(4, 3), Fraction(1, 3), Fraction(3)]
)
capped_rates = st.builds(
    Fraction, st.integers(1, 10**7), st.integers(1, hl.MAX_RATE_DENOMINATOR)
)
rates = st.one_of(colliding_rates, capped_rates)


@st.composite
def exppolys(draw, max_terms=6, max_degree=hl.MAX_DEGREE):
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        degree = draw(st.one_of(st.integers(0, 3), st.integers(0, max_degree)))
        out[(degree, draw(rates))] = draw(coefficients)
    return ExpPoly(out)


@st.composite
def kernel_inputs(draw):
    """A family member, or its derivative, or its resolvent (degree up to
    MAX_DEGREE + 1 at the resonant rate)."""
    f = draw(exppolys())
    return draw(st.sampled_from([f, f.derivative(), hl.resolvent_solve(f)]))


@settings(deadline=None, max_examples=100)
@given(f=kernel_inputs(), g=kernel_inputs())
def test_inner_equals_termwise_reference(f, g):
    assert hl.inner(f, g) == inner_termwise(f, g)


def test_inner_equals_termwise_on_degree_33_resolvent():
    u = hl.resolvent_solve(term(32, 1, 1))
    assert max(k for k, _ in u.terms) == hl.MAX_DEGREE + 1
    g = term(3, Fraction(1, 2), 2, -1) + term(0, 1, 0, 5) + exp_decay(Fraction(7, 3))
    for x, y in ((u, u), (u, g), (g, u), (u.derivative(), u)):
        assert hl.inner(x, y) == inner_termwise(x, y)


def test_inner_with_a_zero_polynomial():
    f = term(2, Fraction(3, 2), 1, 1) + term(0, 1, 0, -4)
    assert hl.inner(f, ExpPoly()) == hl.inner(ExpPoly(), f) == QC()
    assert hl.inner(ExpPoly(), ExpPoly()) == QC()


def test_inner_sums_colliding_rate_pairs():
    # four rate pairs, two of them with the sum 1/2 + 3/2 = 1 + 1 = 2;
    # <exp(-lam t), exp(-mu t)> = 1 / (lam + mu)
    f = exp_decay(Fraction(1, 2)) + exp_decay(1)
    g = exp_decay(Fraction(3, 2)) + exp_decay(1)
    expected = QC(2 * Fraction(1, 2) + Fraction(2, 3) + Fraction(2, 5))
    assert hl.inner(f, g) == inner_termwise(f, g) == expected


@settings(deadline=None, max_examples=60)
@given(f=kernel_inputs(), g=kernel_inputs())
def test_inner_hermitian_symmetry_on_kernel_inputs(f, g):
    assert hl.inner(f, g) == hl.inner(g, f).conj()


@settings(deadline=None, max_examples=60)
@given(
    f1=exppolys(max_degree=8), f2=exppolys(max_degree=8), g=exppolys(max_degree=8),
    a=coefficients, b=coefficients,
)
def test_inner_sesquilinear(f1, f2, g, a, b):
    combo = f1.scale(a) + f2.scale(b)
    assert hl.inner(combo, g) == a * hl.inner(f1, g) + b * hl.inner(f2, g)
    assert hl.inner(g, combo) == a.conj() * hl.inner(g, f1) + b.conj() * hl.inner(g, f2)


@pytest.mark.parametrize("count", [5, 60])
def test_inner_builds_no_rational_complex_per_term_pair(count, monkeypatch):
    rnd = random.Random(count)
    f, g = random_exppoly(rnd, count), random_exppoly(rnd, count)
    calls = []
    original = hl.RationalComplex.__post_init__

    def counting(self):
        calls.append(None)
        original(self)

    monkeypatch.setattr(hl.RationalComplex, "__post_init__", counting)
    hl.inner(f, g)
    # the result is the only one; term-wise summation built more than
    # count**2 (3600 at 60 terms)
    assert len(calls) <= 2
