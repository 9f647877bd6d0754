"""The grouped half-line inner product against the term-wise reference.

``halfline.inner_sum`` sums integer numerators grouped by rate sum and
degree over all its pairs at once, and ``halfline.inner`` is its one-pair
case; ``reference.inner_termwise`` adds one exact term per term pair.  Both
must agree exactly (``Fraction``s are canonical), including on colliding
rate sums, the resonant rate 1, degree-33 resolvent outputs, zero
polynomials, purely imaginary coefficients, rate denominators up to the
cap, and sums over pairs with different coefficient scales.  The kernel
also builds a constant number of ``RationalComplex`` values, however many
term pairs it sums.
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


def _termwise_sum(pairs):
    total = QC()
    for f, g in pairs:
        total = total + inner_termwise(f, g)
    return total


# coefficients on very different scales: the pairs' integer scales differ
scaled = st.sampled_from([QC(1), QC(Fraction(1, 7**5)), QC(0, 10**20), QC(-3, 2**70)])


@st.composite
def pair_sequences(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        f = draw(st.one_of(kernel_inputs(), st.just(ExpPoly())))
        g = draw(st.one_of(kernel_inputs(), st.just(ExpPoly())))
        pairs.append((f.scale(draw(scaled)), g.scale(draw(scaled))))
    return pairs


@settings(deadline=None, max_examples=100)
@given(pairs=pair_sequences())
def test_inner_sum_equals_the_sum_of_termwise_inner_products(pairs):
    assert hl.inner_sum(pairs) == _termwise_sum(pairs)
    assert hl.inner_sum(iter(pairs)) == hl.inner_sum(tuple(pairs))


def test_inner_sum_of_one_pair_and_of_no_pair():
    f = term(2, Fraction(3, 2), 1, 1) + term(0, 1, 0, -4)
    g = term(1, Fraction(1, 6), Fraction(-5, 3), 2) + exp_decay(3)
    assert hl.inner_sum([(f, g)]) == hl.inner(f, g) == inner_termwise(f, g)
    assert hl.inner_sum([]) == hl.inner_sum([(f, ExpPoly()), (ExpPoly(), g)]) == QC()


def test_inner_sum_adds_pairs_on_different_scales_and_rates():
    rnd = random.Random(3)
    f, g = random_exppoly(rnd, 12), random_exppoly(rnd, 12)
    h = term(4, Fraction(999_999, 1_000_000), Fraction(1, 3**40), -(10**30))
    pairs = [(f, g), (h, f.scale(QC(0, Fraction(1, 11)))), (g, h), (h, h)]
    assert hl.inner_sum(pairs) == _termwise_sum(pairs)
    assert hl.inner_sum(pairs) == sum((hl.inner(x, y) for x, y in pairs), QC())


@pytest.fixture
def rational_complex_count(monkeypatch):
    calls = []
    original = hl.RationalComplex.__post_init__

    def counting(self):
        calls.append(None)
        original(self)

    monkeypatch.setattr(hl.RationalComplex, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("count", [5, 60])
def test_inner_builds_no_rational_complex_per_term_pair(
    count, rational_complex_count
):
    rnd = random.Random(count)
    f, g = random_exppoly(rnd, count), random_exppoly(rnd, count)
    rational_complex_count.clear()
    hl.inner(f, g)
    # the result is the only one; term-wise summation built more than
    # count**2 (3600 at 60 terms)
    assert len(rational_complex_count) <= 2


@pytest.mark.parametrize("count", [5, 60])
def test_green_left_side_builds_one_rational_complex(
    count, rational_complex_count, monkeypatch
):
    rnd = random.Random(count)
    f, g = random_exppoly(rnd, count), random_exppoly(rnd, count)
    kernel = hl.inner_sum
    built = []

    def counting_sum(pairs):
        pairs = list(pairs)
        before = len(rational_complex_count)
        result = kernel(pairs)
        built.append((len(pairs), len(rational_complex_count) - before))
        return result

    monkeypatch.setattr(hl, "inner_sum", counting_sum)
    lhs, _ = hl.green_identity(f, g)
    # one kernel call over both pairs, whose result is its only value
    assert built == [(2, 1)]
    assert lhs == inner_termwise(hl.adjoint_apply(f), g) + inner_termwise(
        f, hl.adjoint_apply(g)
    )
