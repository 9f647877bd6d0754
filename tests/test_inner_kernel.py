"""The grouped half-line inner product against the term-wise reference.

``halfline.inner_sum`` sums integer numerators grouped by rate sum and
degree over all its pairs at once, one pair being the inner product;
``reference.inner_termwise`` adds one exact term per term pair.  Both
must agree exactly (``Fraction``s are canonical), including on colliding
rate sums, the resonant rate 1, degree-33 resolvent outputs, zero
polynomials, purely imaginary coefficients, rate denominators up to the
cap, and sums over pairs with different coefficient scales.  The kernel
also builds a constant number of ``RationalComplex`` values, however many
term pairs it sums, and reduces each rate-sum fraction before adding them,
so that rate sums which cancel add no denominator.

``halfline.inner_sum_re`` is the real part of ``inner_sum`` by its own
accumulation; it must equal ``inner_sum(pairs).re`` exactly, also on long
coefficients and coprime rates, and the checks that report only a real part
(``dissipative``, ``norm_sq``, ``adjoint_injectivity_check``) must not call
the complex kernel.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    exppoly_to_json,
    inner_termwise,
    largest_primes_below,
    random_exppoly,
)
from skewext import halfline as hl
from skewext.cli import main
from skewext.halfline import ExpPoly, exp_decay, term
from skewext.halfline import RationalComplex as QC

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
    assert hl.inner_sum(((f, g),)) == inner_termwise(f, g)


def test_inner_equals_termwise_on_degree_33_resolvent():
    u = hl.resolvent_solve(term(32, 1, 1))
    assert max(k for k, _ in u.terms) == hl.MAX_DEGREE + 1
    g = term(3, Fraction(1, 2), 2, -1) + term(0, 1, 0, 5) + exp_decay(Fraction(7, 3))
    for x, y in ((u, u), (u, g), (g, u), (u.derivative(), u)):
        assert hl.inner_sum(((x, y),)) == inner_termwise(x, y)


def test_inner_with_a_zero_polynomial():
    f = term(2, Fraction(3, 2), 1, 1) + term(0, 1, 0, -4)
    assert hl.inner_sum(((f, ExpPoly()),)) == hl.inner_sum(((ExpPoly(), f),)) == QC()
    assert hl.inner_sum(((ExpPoly(), ExpPoly()),)) == QC()


def test_inner_sums_colliding_rate_pairs():
    # four rate pairs, two of them with the sum 1/2 + 3/2 = 1 + 1 = 2;
    # <exp(-lam t), exp(-mu t)> = 1 / (lam + mu)
    f = exp_decay(Fraction(1, 2)) + exp_decay(1)
    g = exp_decay(Fraction(3, 2)) + exp_decay(1)
    expected = QC(2 * Fraction(1, 2) + Fraction(2, 3) + Fraction(2, 5))
    assert hl.inner_sum(((f, g),)) == inner_termwise(f, g) == expected


@settings(deadline=None, max_examples=60)
@given(f=kernel_inputs(), g=kernel_inputs())
def test_inner_hermitian_symmetry_on_kernel_inputs(f, g):
    assert hl.inner_sum(((f, g),)) == hl.inner_sum(((g, f),)).conj()


@settings(deadline=None, max_examples=60)
@given(
    f1=exppolys(max_degree=8), f2=exppolys(max_degree=8), g=exppolys(max_degree=8),
    a=coefficients, b=coefficients,
)
def test_inner_sesquilinear(f1, f2, g, a, b):
    combo = f1.scale(a) + f2.scale(b)
    left = a * hl.inner_sum(((f1, g),)) + b * hl.inner_sum(((f2, g),))
    right = a.conj() * hl.inner_sum(((g, f1),)) + b.conj() * hl.inner_sum(((g, f2),))
    assert hl.inner_sum(((combo, g),)) == left
    assert hl.inner_sum(((g, combo),)) == right


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
    assert hl.inner_sum([(f, g)]) == inner_termwise(f, g)
    assert hl.inner_sum([]) == hl.inner_sum([(f, ExpPoly()), (ExpPoly(), g)]) == QC()


def test_inner_sum_adds_pairs_on_different_scales_and_rates():
    rnd = random.Random(3)
    f, g = random_exppoly(rnd, 12), random_exppoly(rnd, 12)
    h = term(4, Fraction(999_999, 1_000_000), Fraction(1, 3**40), -(10**30))
    pairs = [(f, g), (h, f.scale(QC(0, Fraction(1, 11)))), (g, h), (h, h)]
    assert hl.inner_sum(pairs) == _termwise_sum(pairs)
    assert hl.inner_sum(pairs) == sum((hl.inner_sum(((x, y),)) for x, y in pairs), QC())


@pytest.fixture
def rational_complex_count(monkeypatch):
    calls = []
    original = hl.RationalComplex.__init__

    def counting(self, *args):
        calls.append(None)
        original(self, *args)

    monkeypatch.setattr(hl.RationalComplex, "__init__", counting)
    return calls


@pytest.mark.parametrize("count", [5, 60])
def test_inner_builds_no_rational_complex_per_term_pair(
    count, rational_complex_count
):
    rnd = random.Random(count)
    f, g = random_exppoly(rnd, count), random_exppoly(rnd, count)
    rational_complex_count.clear()
    hl.inner_sum(((f, g),))
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


def test_green_buckets_reduce_before_the_pairwise_sum(monkeypatch):
    # t^32 and t^31 against exp(-lam t) with 60 coprime rate denominators
    # near the cap: every rate sum of Green's left side cancels, so each of
    # the 1830 bucket fractions reduces to 0/1; unreduced, their
    # denominators N^(top+1) have 1319 to 2657 bits, and adding them takes
    # seconds
    rates = [
        Fraction(p + 1 + i, p) for i, p in enumerate(largest_primes_below(10**6, 60))
    ]
    f = ExpPoly({(32 - i % 2, lam): QC(1) for i, lam in enumerate(rates)})
    kernel = hl._pairwise_sum
    largest = []

    def recording_sum(parts):
        largest.append(max(den.bit_length() for _, _, den in parts))
        return kernel(parts)

    monkeypatch.setattr(hl, "_pairwise_sum", recording_sum)
    lhs, rhs = hl.green_identity(f, f)
    assert lhs == rhs == QC()
    assert len(largest) == 1 and largest[0] <= 64


@settings(deadline=None, max_examples=100)
@given(pairs=pair_sequences())
def test_inner_sum_re_is_the_real_part_of_inner_sum(pairs):
    assert hl.inner_sum_re(pairs) == hl.inner_sum(pairs).re
    assert type(hl.inner_sum_re(pairs)) is Fraction
    assert hl.inner_sum_re(iter(pairs)) == hl.inner_sum_re(tuple(pairs))


def test_inner_sum_re_of_no_pair_and_of_zero_functions():
    f = term(2, Fraction(3, 2), 1, 1) + term(0, 1, 0, -4)
    assert hl.inner_sum_re([]) == hl.inner_sum_re([(f, ExpPoly()), (ExpPoly(), f)]) == 0
    assert hl.inner_sum_re([(f, f)]) == inner_termwise(f, f).re


def _hostile_function(rnd, rates, count):
    """``count`` terms at ``rates`` with coefficients near 10^40 over
    denominators near 10^30, both signs, degrees up to the cap."""
    terms = {}
    while len(terms) < count:
        key = (rnd.randint(0, hl.MAX_DEGREE), rnd.choice(rates))
        terms[key] = QC(
            Fraction(rnd.randint(-(10**40), 10**40), rnd.randint(10**29, 10**30)),
            Fraction(rnd.randint(-(10**40), 10**40), rnd.randint(10**29, 10**30)),
        )
    return ExpPoly(terms)


@pytest.mark.parametrize("seed", range(4))
def test_inner_sum_re_on_long_coefficients_and_coprime_rates(seed):
    rnd = random.Random(seed)
    coprime = [
        Fraction(p + 1 + i, p) for i, p in enumerate(largest_primes_below(10**6, 12))
    ]
    rates = coprime + [Fraction(1), Fraction(10**6 - 1, 10**6), Fraction(7, 3)]
    f, g = _hostile_function(rnd, rates, 8), _hostile_function(rnd, rates, 8)
    pairs = [(f, g), (g.derivative(), f.scale(QC(0, Fraction(1, 10**30)))), (f, f)]
    assert hl.inner_sum_re(pairs) == hl.inner_sum(pairs).re
    assert hl.inner_sum_re(pairs[:1]) == inner_termwise(f, g).re
    assert hl.norm_sq(f) == inner_termwise(f, f).re


@pytest.fixture
def complex_kernel_calls(monkeypatch):
    """Every call of the complex kernel ``inner_sum``, which ``inner`` also
    goes through."""
    calls = []
    kernel = hl.inner_sum

    def recording(pairs):
        calls.append(pairs)
        return kernel(pairs)

    monkeypatch.setattr(hl, "inner_sum", recording)
    return calls


def test_real_part_checks_do_not_call_the_complex_kernel(
    complex_kernel_calls, tmp_path, capsys
):
    rnd = random.Random(5)
    f = random_exppoly(rnd, 20)
    f0 = f - exp_decay(1).scale(f.eval0())
    assert hl.norm_sq(f) == inner_termwise(f, f).re
    report = hl.adjoint_injectivity_check(f)
    assert report.value == (inner_termwise(f, f) - inner_termwise(f.derivative(), f)).re
    assert report.holds and not report.equality
    path = tmp_path / "f0.json"
    path.write_text(json.dumps(exppoly_to_json(f0)))
    assert main(["halfline", "--subcheck", "dissipative", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["re_inner"] == "0"
    assert complex_kernel_calls == []
    # the counter sees the complex kernel where it is used
    hl.green_identity(f, f)
    assert len(complex_kernel_calls) == 1


def test_dissipative_on_coprime_rates_with_complex_coefficients(tmp_path, capsys):
    # 30 trace-zero terms at coprime rate denominators near the cap: Re <Hf, f>
    # is 0, while the imaginary part the subcheck does not report has a
    # denominator of more than 10^4 bits
    rates = [
        Fraction(p + 1 + i, p) for i, p in enumerate(largest_primes_below(10**6, 30))
    ]
    f = ExpPoly({(1 + i % 8, lam): QC(1, i + 1) for i, lam in enumerate(rates)})
    image = hl.canonical_extension_apply(f)
    full = hl.inner_sum(((image, f),))
    assert full.re == 0 and full.im.denominator.bit_length() > 10**4
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps(exppoly_to_json(f)))
    code = main(["halfline", "--subcheck", "dissipative", "--input", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "pass"
    assert report["payload"]["re_inner"] == "0"
    assert report["payload"]["nonpositive"] is True
