"""Exact half-line model: the derivative operator on exponential polynomials.

The computational substrate is the family of finite sums

    f(t) = sum over (k, lam) of  c * t^k * exp(-lam t),   lam rational > 0,

with rational-complex coefficients.  The family is invariant under d/dt,
contains the deficiency solutions that exist in L2(0, infinity), and is
closed under the resolvent integral of the canonical extension, so every
identity in this module is checked with EXACT rational arithmetic and zero
tolerance.  The lam > 0 constraint is what encodes square-integrability:
the candidate exp(+t) is excluded by it, which is precisely why the model
has deficiency indices (1, 0) and no boundary triplet.

Conventions, fixed to match the numeric modules: the minimal operator is
d/dt on the trace-zero part of the family, its adjoint acts as -d/dt on
the whole family, and inner products are conjugate-linear in the second
argument.  Irrational scalars (sqrt(2), norms) are never materialized;
identities are arranged so only squared norms appear.

A function is held in one integer form, with no ``Fraction`` in it,
(D, ((p, q, ((k, D re c, D im c), ...)), ...)): a common denominator D and
one group per rate lam = p/q, p and q positive and coprime, rates in
increasing order, degrees increasing within a group, no zero term.  The
form is canonical, gcd(D, every numerator) = 1, so equal functions have
equal forms and equality is a tuple comparison.  Every kernel reads and
writes this form: ``_first_order`` (a f + b f': the derivative, -f' and
the resolvent check u + u'), ``resolvent_solve``, negation, scaling and
sums bring their output to one denominator and divide it by one gcd
(``_reduced``); ``eval0`` adds the degree-zero numerators.  The
((k, lam), ``RationalComplex``) view behind ``items()`` and ``terms`` is
built on its first request and kept; no check needs it, and ``formats``
writes a report's digits from the integers.  Those digits, and every exact
value in a message or ``repr`` here, are written by ``_int_digits`` and
``_fraction_digits``, also past CPython's int-to-str limit.

``inner_sum`` is the exact sum of inner products over a sequence of pairs,
which is also the inner product on a direct sum of half-lines; ``inner``
is its one-pair case, and the left side of ``green_identity`` is one call
on two pairs.  It brings all pairs to one integer scale and all rates to
one denominator, and evaluates the closed form integral of
t^m exp(-s t) = m! / s^(m+1) with term pairs summed in integers per rate
sum s = N/M and total degree m, in buckets the pairs share.  Each rate sum
becomes one integer fraction over N^(top+1), by Horner with the weights
m! M^(m+1) built once per distinct M, reduced by its gcd, and those
fractions are added by a balanced pairwise sum, so a call builds a single
``RationalComplex``, its result, equal to the term-wise sum exactly.
``inner_sum_re`` is its real part, exactly and without the imaginary
part: the weights m!/s^(m+1) are real, so it takes the same preparation,
finish and pairwise sum and accumulates only Re(c conj(d)).  The checks
that report a real part use it: ``norm_sq``, ``adjoint_injectivity_check``
and the CLI's ``halfline --subcheck dissipative`` (Re <Hf, f>); ``green``
keeps ``inner_sum``, since its report compares both parts.

Validation happens once, at the input edge: ``ExpPoly(...)`` and
``formats.exppoly_from_json`` check every (k, p, q) key (``_check_key``)
and sort on exact integer ranks (``_canonical_order``), the decoder with
no dict, ``Fraction`` or ``RationalComplex``.  Kernel outputs, and
negation, scaling and sums of valid functions, already have valid keys in
canonical order and go through the one trusted constructor
``ExpPoly._from_integers``, which skips the checks; the test suite wraps it
to rebuild every such function through ``ExpPoly(...)`` and require the
same form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, InvalidTerm, NotExact, TraceNotZero

#: Caps keeping exact term growth bounded; the degree cap limits input
#: functions only (``formats.exppoly_from_json``), not derived ones.
MAX_DEGREE = 32
MAX_RATE_DENOMINATOR = 10**6

_ZERO = Fraction(0)


#: an integer of fewer bits is below 2**1992 < 10**600, so ``str`` writes
#: it within CPython's int-to-str digit limit at any setting (the lowest
#: allowed is 640 digits)
_SHORT_BITS = 1993


def _int_digits(n: int) -> str:
    """The decimal digits of ``n`` as ``str(n)`` writes them, also beyond
    ``sys.get_int_max_str_digits()``: a long ``n`` is split by one divmod
    by a power of ten at about half its digits, and each part is written
    the same way."""
    if n.bit_length() < _SHORT_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_digits(-n)
    # n has at least 600 digits, so both parts are shorter than n
    half = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10**half)
    return _int_digits(high) + _int_digits(low).zfill(half)


def _fraction_digits(num: int, den: int) -> str:
    """num / den (den > 0) as ``str(Fraction(num, den))`` writes it: lowest
    terms, and the numerator alone over 1."""
    h = math.gcd(num, den)
    if h != 1:
        num //= h
        den //= h
    if den.bit_length() < _SHORT_BITS and num.bit_length() < _SHORT_BITS:
        return str(num) if den == 1 else f"{num}/{den}"
    if den == 1:
        return _int_digits(num)
    return _int_digits(num) + "/" + _int_digits(den)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise NotExact(f"expected an exact rational, got {type(x).__name__}")


class RationalComplex:
    """Complex number with exact rational real and imaginary parts.

    An immutable value, equal and hashed by (re, im).  It is written out
    rather than declared a frozen dataclass, and the records below are
    ``NamedTuple``s, so that ``import skewext.cli`` does not load
    ``dataclasses`` and the ``inspect`` it imports, over a third of the
    import's time."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = _ZERO, im: Fraction = _ZERO):
        self.__post_init__(re, im)

    def __post_init__(self, re, im):
        # one coercion and store; perfbench's tracer counts calls of this name
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im) == (other.re, other.im)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"{type(self).__qualname__}(re={self.re!r}, im={self.im!r})"

    def __add__(self, other):
        other = _coerce(other)
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conj(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        re = _fraction_digits(*self.re.as_integer_ratio())
        im = _fraction_digits(*self.im.as_integer_ratio())
        return f"{re}{'+' if self.im >= 0 else ''}{im}i"


def _coerce(x) -> RationalComplex:
    if isinstance(x, RationalComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalComplex(_frac(x), _ZERO)
    raise NotExact(f"cannot coerce {type(x).__name__} to RationalComplex")


QC = RationalComplex  # short constructor alias used heavily in tests


class ExpPoly:
    """A finite sum of terms c * t^k * exp(-lam t) with exact coefficients.

    Terms are keyed by (k, lam) with k a nonnegative integer and lam a
    positive rational; every key is checked and zero coefficients are
    dropped.  Each rate is read once, as p/q in lowest terms, into the
    canonical integer form of the module docstring (``integer_form``).
    Instances are immutable.  Kernel outputs, whose keys are valid and
    already in canonical order, are built by ``_from_integers`` unchecked.
    """

    __slots__ = ("_den", "_groups", "_items")

    def __init__(self, terms=None):
        items = []
        for (k, lam), coeff in (terms or {}).items():
            p, q = _frac(lam).as_integer_ratio()
            _check_key(k, p, q)
            coeff = _coerce(coeff)
            if not coeff.is_zero():
                re, im = coeff.re, coeff.im
                ratios = (re.numerator, re.denominator, im.numerator, im.denominator)
                items.append(((k, p, q), ratios))
        # over the lcm of fractions in lowest terms, the form is canonical
        self._den, self._groups = _integer_form(_canonical_order(items))
        self._items = None

    @classmethod
    def _from_integers(cls, den: int, groups: tuple) -> "ExpPoly":
        """The function with the integer form ``(den, groups)``, trusted to
        be what ``__init__`` would build: valid keys in canonical order, no
        zero term, gcd(den, every numerator) = 1."""
        f = object.__new__(cls)
        f._den, f._groups, f._items = den, groups, None
        return f

    def integer_form(self) -> tuple:
        """``(D, ((p, q, ((k, D re c, D im c), ...)), ...))``, the form of
        the module docstring, in canonical order; not copied."""
        return self._den, self._groups

    def items(self) -> tuple:
        """The (key, coefficient) pairs in canonical order, coefficients as
        ``RationalComplex``; built on the first call and kept."""
        if self._items is None:
            den = self._den
            self._items = tuple(
                ((k, lam), RationalComplex(Fraction(re, den), Fraction(im, den)))
                for p, q, terms in self._groups
                for lam in (Fraction(p, q),)
                for k, re, im in terms
            )
        return self._items

    @property
    def terms(self):
        """Term mapping (k, lam) -> coefficient, as a fresh dict."""
        return dict(self.items())

    def is_zero(self) -> bool:
        return not self._groups

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        # canonical forms: equal functions have equal forms
        return self._den == other._den and self._groups == other._groups

    def __hash__(self):
        return hash((self._den, self._groups))

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        sums = {}
        for f in (self, other):
            factor = den // f._den
            for p, q, terms in f._groups:
                for k, re, im in terms:
                    old_re, old_im = sums.get((k, p, q), (0, 0))
                    sums[k, p, q] = (old_re + re * factor, old_im + im * factor)
        items = [(key, c) for key, c in sums.items() if c[0] or c[1]]
        return _reduced(den, _grouped(_canonical_order(items)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        groups = tuple(
            (p, q, tuple((k, -re, -im) for k, re, im in terms))
            for p, q, terms in self._groups
        )
        return ExpPoly._from_integers(self._den, groups)

    def scale(self, c) -> "ExpPoly":
        c = _coerce(c)
        if c.is_zero():
            return ExpPoly._from_integers(1, ())
        e = math.lcm(c.re.denominator, c.im.denominator)
        cr = c.re.numerator * (e // c.re.denominator)
        ci = c.im.numerator * (e // c.im.denominator)
        groups = []
        for p, q, terms in self._groups:
            scaled = tuple((k, x * cr - y * ci, x * ci + y * cr) for k, x, y in terms)
            groups.append((p, q, scaled))
        return _reduced(self._den * e, tuple(groups))

    def derivative(self) -> "ExpPoly":
        """Exact derivative, from
        t^k exp(-lam t) -> k t^(k-1) exp(-lam t) - lam t^k exp(-lam t),
        in integers per rate group (see ``_first_order``)."""
        return _first_order(self, 0, 1)

    def plus_derivative(self) -> "ExpPoly":
        """(1 + d/dt) f, the left side of the resolvent equation u + u' = f,
        computed by the same kernel as ``derivative``."""
        return _first_order(self, 1, 1)

    def eval0(self) -> RationalComplex:
        """The boundary trace f(0): the sum of all degree-zero coefficients,
        the first term of a group when it has degree zero."""
        re = im = 0
        for _, _, terms in self._groups:
            k, cr, ci = terms[0]
            if k == 0:
                re += cr
                im += ci
        return RationalComplex(Fraction(re, self._den), Fraction(im, self._den))

    def __repr__(self):
        if self.is_zero():
            return "ExpPoly(0)"
        bits = [
            f"({coeff}) t^{k} e^(-{_fraction_digits(*lam.as_integer_ratio())} t)"
            for (k, lam), coeff in self.items()
        ]
        return "ExpPoly(" + " + ".join(bits) + ")"


def _ranks(items) -> list:
    """Exact integer sort keys of ((k, p, q), coefficient) pairs in canonical
    (lam, k) order: with L the lcm of the rate denominators q, lam = p/q
    ranks as (p (L // q), k).  Integers compare in C, and unlike a float
    they do not overflow above about 1e308."""
    scale = math.lcm(*(q for (_, _, q), _ in items))
    return [(p * (scale // q), k) for (k, p, q), _ in items]


def _check_key(k, p: int, q: int):
    """Raise InvalidTerm unless the degree ``k`` is a nonnegative integer and
    the rate p/q (lowest terms, q > 0) is positive, q within the cap."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        got = _int_digits(k) if type(k) is int else repr(k)
        raise InvalidTerm(f"degree must be a nonnegative integer, got {got}")
    if p <= 0:
        raise InvalidTerm(f"rate must be positive, got {_fraction_digits(p, q)}")
    if q > MAX_RATE_DENOMINATOR:
        raise InvalidTerm(f"rate denominator {_int_digits(q)} exceeds the cap")


def _canonical_order(items) -> tuple:
    """The ((k, p, q), coefficient) pairs ``items``, keys checked, sorted into
    canonical (lam, k) order by ``_ranks``; InvalidTerm if a key repeats."""
    ranks = _ranks(items)
    order = sorted(range(len(items)), key=ranks.__getitem__)
    for i, j in zip(order, order[1:]):
        if ranks[i] == ranks[j]:
            k, p, q = map(_int_digits, items[i][0])
            raise InvalidTerm(f"duplicate term key ({k}, Fraction({p}, {q}))")
    return tuple(items[i] for i in order)


def term(k: int, lam, re=0, im=0) -> ExpPoly:
    """The single term (re + im*i) t^k exp(-lam t)."""
    return ExpPoly({(k, _frac(lam)): RationalComplex(_frac(re), _frac(im))})


def exp_decay(lam=1) -> ExpPoly:
    """exp(-lam t)."""
    return term(0, lam, 1)


def _grouped(items) -> tuple:
    """The groups (p, q, ((k, re, im), ...)) of the ((k, p, q), (re, im))
    integer pairs ``items``, which are in canonical order."""
    groups = []
    last = None
    for (k, p, q), (re, im) in items:
        if (p, q) != last:
            last = (p, q)
            terms = []
            groups.append((p, q, terms))
        terms.append((k, re, im))
    return tuple((p, q, tuple(terms)) for p, q, terms in groups)


def _integer_form(items) -> tuple:
    """``(D, groups)`` of the (key, (re_num, re_den, im_num, im_den)) pairs
    ``items``, in canonical order with nonzero coefficients: D is the lcm of
    all denominators.  It is canonical when every fraction is in lowest
    terms; ``_reduced`` makes it so otherwise."""
    den = math.lcm(*(d for _, (_, rd, _, id_) in items for d in (rd, id_)))
    return den, _grouped(
        (key, (rn * (den // rd), in_ * (den // id_)))
        for key, (rn, rd, in_, id_) in items
    )


def _reduced(den: int, groups: tuple) -> ExpPoly:
    """The function with the integer form ``(den, groups)``, valid in every
    respect but the gcd: den and all numerators are divided by their gcd."""
    h = math.gcd(
        den, *[x for _, _, terms in groups for _, re, im in terms for x in (re, im)]
    )
    if h != 1:
        den //= h
        groups = tuple(
            (p, q, tuple((k, re // h, im // h) for k, re, im in terms))
            for p, q, terms in groups
        )
    return ExpPoly._from_integers(den, groups)


def _first_order(f: ExpPoly, a: int, b: int) -> ExpPoly:
    """a f + b f', exactly, for integers a and b != 0.

    With C_k the numerators of f over D and Q the lcm of its rate
    denominators, the output numerator over D Q at degree j and rate
    lam = p/q is

        (a q - b p) (Q / q) C_j + b Q (j+1) C_(j+1).

    Zero sums drop their key, and the output is reduced once.  Groups come
    in increasing rate and degrees in increasing order, so the output is
    built in canonical order.
    """
    groups = f._groups
    big_q = math.lcm(*(q for _, q, _ in groups))
    up = b * big_q
    out = []
    for p, q, terms in groups:
        here = (a * q - b * p) * (big_q // q)
        run = []
        prev = -1  # the degree of the previous input term
        for (k, cr, ci), (nk, nr, ni) in zip(terms, terms[1:] + ((-1, 0, 0),)):
            if k - 1 > prev:  # no input term at degree k - 1: only b f' reaches it
                run.append((k - 1, up * k * cr, up * k * ci))
            out_re, out_im = here * cr, here * ci
            if nk == k + 1:
                out_re += up * nk * nr
                out_im += up * nk * ni
            if out_re or out_im:
                run.append((k, out_re, out_im))
            prev = k
        if run:
            out.append((p, q, tuple(run)))
    return _reduced(f._den * big_q, tuple(out))


def _pairwise_sum(parts):
    """The sum of the complex fractions (re + i im) / den in ``parts``, as
    ``(re, im, den)``: neighbours are added in a balanced tree, each step
    over the lcm d1 d2 / gcd(d1, d2) of its two denominators, so that no
    operand grows to the size of the final denominator before the last
    steps.  The empty sum is (0, 0, 1)."""
    while len(parts) > 1:
        paired = []
        for (re1, im1, den1), (re2, im2, den2) in zip(parts[::2], parts[1::2]):
            h = math.gcd(den1, den2)
            a, b = den2 // h, den1 // h
            paired.append((re1 * a + re2 * b, im1 * a + im2 * b, den1 * a))
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0] if parts else (0, 0, 1)


def _moment_weights(m: int, width: int) -> list:
    """deg! M^(deg+1) for deg = 0 .. width - 1: with the rate sum s = N/M,
    the integral of t^deg exp(-s t) is this weight over N^(deg+1)."""
    weights = [m]
    for deg in range(1, width):
        weights.append(weights[-1] * m * deg)
    return weights


def _prepared(pairs):
    """The inputs of the inner-product kernels: ``(scale, rate_den, width,
    sides)``, or None when every pair has a zero function.

    ``scale`` is the lcm D of the products D_f D_g of the pairs' integer
    denominators, ``rate_den`` the lcm L of all rate denominators and
    ``width`` one more than the highest total degree.  ``sides`` holds one
    ``(f_rates, g_rates)`` per pair with two nonzero functions: its groups
    as (S, terms), S the rate over L, the numerators of f multiplied by
    D / (D_f D_g), so that every term pair's product is over D."""
    prepared = []
    for f, g in pairs:
        if f.is_zero() or g.is_zero():
            continue
        prepared.append((f._den * g._den, f._groups, g._groups))
    if not prepared:
        return None
    scale = math.lcm(*(pair_scale for pair_scale, _, _ in prepared))
    rate_den = math.lcm(
        *(q for _, f_groups, g_groups in prepared for _, q, _ in f_groups + g_groups)
    )
    width = 1 + max(
        max(terms[-1][0] for *_, terms in f_groups)
        + max(terms[-1][0] for *_, terms in g_groups)
        for _, f_groups, g_groups in prepared
    )
    sides = []
    for pair_scale, f_groups, g_groups in prepared:
        factor = scale // pair_scale
        f_rates = []
        for p, q, f_terms in f_groups:
            if factor != 1:
                f_terms = [(a, cr * factor, ci * factor) for a, cr, ci in f_terms]
            f_rates.append((p * (rate_den // q), f_terms))
        g_rates = [(r * (rate_den // s), g_terms) for r, s, g_terms in g_groups]
        sides.append((f_rates, g_rates))
    return scale, rate_den, width, sides


def _bucket_sum(buckets, rate_den: int, width: int) -> tuple:
    """The exact sum of the rate-sum buckets ``buckets``, S -> (P_m real
    parts, P_m imaginary parts), as ``(re, im, den)``.

    Each rate sum s = S / L = N/M in lowest terms gives the single fraction
    sum over m of P_m m! M^(m+1) N^(top-m) over N^(top+1), top its highest
    degree with a nonzero P_m, by Horner in N with the weights built once
    per distinct M.  The weights are real, so the real and imaginary parts
    take the same steps.  Each fraction is divided by the gcd of its three
    integers and the fractions are added by ``_pairwise_sum``."""
    weights = {}  # M -> _moment_weights(M, width)
    parts = []
    for total, (sum_re, sum_im) in buckets.items():
        h = math.gcd(total, rate_den)
        n, m = total // h, rate_den // h
        top = width - 1
        while top and not (sum_re[top] or sum_im[top]):
            top -= 1
        weight = weights.get(m)
        if weight is None:
            weight = weights[m] = _moment_weights(m, width)
        num_re = num_im = 0
        for deg in range(top + 1):
            num_re = num_re * n + sum_re[deg] * weight[deg]
            num_im = num_im * n + sum_im[deg] * weight[deg]
        den = n ** (top + 1)
        h = math.gcd(num_re, num_im, den)
        parts.append((num_re // h, num_im // h, den // h))
    return _pairwise_sum(parts)


def inner_sum(pairs) -> RationalComplex:
    """The exact sum of the L2(0, infinity) inner products <f_i, g_i> over a
    sequence of pairs ``(f_i, g_i)``, each conjugate-linear in ``g_i``.

    It is also the inner product on a direct sum of half-lines.  Each term
    pair contributes c conj(d) m! / s^(m+1), from the closed form integral
    of t^m exp(-s t) = m! / s^(m+1), with m = a + b and s = lam + mu.  All
    pairs are brought to one integer scale: with D_f and D_g the
    denominators of a pair's integer forms, D is the lcm of the products
    D_f D_g over all pairs, and each f is scaled by D / (D_f D_g).  Every
    rate is written over the lcm L of all rate denominators, so a rate sum
    s is an integer S over L (``_prepared``).  The integer products of the
    numerators are added per S (different rate pairs, and different pairs
    of functions, often share one) and per total degree m, into P_m.  Each
    rate sum s = N/M in lowest terms then gives the single fraction

        sum over m of P_m m! M^(m+1) N^(top-m)   over   N^(top+1),

    top being its highest degree, by Horner in N with the weights
    m! M^(m+1) built once per distinct M.  Each fraction is divided by the
    gcd of its three integers, which keeps a rate sum whose terms cancel
    (Green's identity holds per rate sum) from carrying N^(top+1) into the
    sum (``_bucket_sum``).  The fractions are added by a balanced pairwise
    sum (``_pairwise_sum``) and divided by D once, so a call builds a single
    ``RationalComplex``, its result.  Since ``Fraction``s are canonical, it
    equals the term-wise sum exactly.
    """
    prepared = _prepared(pairs)
    if prepared is None:
        return RationalComplex()
    scale, rate_den, width, sides = prepared
    buckets = {}  # S -> (P_m real parts, P_m imaginary parts)
    for f_rates, g_rates in sides:
        for f_rate, f_terms in f_rates:
            for g_rate, g_terms in g_rates:
                sums = buckets.get(f_rate + g_rate)
                if sums is None:
                    sums = buckets[f_rate + g_rate] = ([0] * width, [0] * width)
                sum_re, sum_im = sums
                for a, cr, ci in f_terms:
                    for b, dr, di in g_terms:
                        sum_re[a + b] += cr * dr + ci * di
                        sum_im[a + b] += ci * dr - cr * di
    num_re, num_im, den = _bucket_sum(buckets, rate_den, width)
    den *= scale
    return RationalComplex(Fraction(num_re, den), Fraction(num_im, den))


def inner_sum_re(pairs) -> Fraction:
    """Re of ``inner_sum(pairs)``, exactly, without its imaginary part.

    Every rate sum s = lam + mu is a positive rational, so the weights
    m! / s^(m+1) are real and the real part of a bucket is the bucket of the
    real parts Re(c conj(d)) = Re c Re d + Im c Im d.  The preparation
    (``_prepared``), the per-bucket finish and the pairwise sum
    (``_bucket_sum``) are those of ``inner_sum``; only the accumulation
    differs: one list of P_m per rate sum, the imaginary channel of every
    bucket being one shared list of zeros, on which the finish multiplies
    zeros only.  The imaginary part, whose denominator need not cancel where
    the real part's does, is never built.
    """
    prepared = _prepared(pairs)
    if prepared is None:
        return _ZERO
    scale, rate_den, width, sides = prepared
    zeros = [0] * width
    buckets = {}  # S -> (P_m real parts, zeros)
    for f_rates, g_rates in sides:
        for f_rate, f_terms in f_rates:
            for g_rate, g_terms in g_rates:
                sums = buckets.get(f_rate + g_rate)
                if sums is None:
                    sums = buckets[f_rate + g_rate] = ([0] * width, zeros)
                sum_re = sums[0]
                for a, cr, ci in f_terms:
                    for b, dr, di in g_terms:
                        sum_re[a + b] += cr * dr + ci * di
    num, _, den = _bucket_sum(buckets, rate_den, width)
    return Fraction(num, den * scale)


def inner(f: ExpPoly, g: ExpPoly) -> RationalComplex:
    """Exact L2(0, infinity) inner product, conjugate-linear in ``g``: the
    one-pair case of ``inner_sum``."""
    return inner_sum(((f, g),))


def norm_sq(f: ExpPoly) -> Fraction:
    """<f, f>, exactly: a real value, so ``inner_sum_re`` computes it."""
    return inner_sum_re(((f, f),))


def adjoint_apply(f: ExpPoly) -> ExpPoly:
    """The adjoint of the minimal operator acts as -d/dt on the whole family."""
    return _first_order(f, 0, -1)


def green_identity(f: ExpPoly, g: ExpPoly):
    """Both sides of the boundary-form identity, exactly.

    Returns (lhs, rhs) with lhs = <H* f, g> + <f, H* g> for H* = -d/dt and
    rhs = f(0) * conj(g(0)); integration by parts makes them equal on the
    whole family.
    """
    lhs = inner_sum(((adjoint_apply(f), g), (f, adjoint_apply(g))))
    rhs = f.eval0() * g.eval0().conj()
    return lhs, rhs


class EigenSolveReport(NamedTuple):
    """Outcome of solving H* f = mu f within the family.

    ``basis`` spans the solution space; when it is empty,
    ``excluded_rate`` records the decay rate the pure-exponential
    candidate would need, which the lam > 0 family constraint (i.e.
    square-integrability) rules out.
    """

    eigenvalue: Fraction
    basis: tuple
    excluded_rate: Fraction | None

    def message(self) -> str:
        if self.excluded_rate is None:
            return f"solution space has dimension {len(self.basis)}"
        return (
            f"solution exists only with lam = {self.excluded_rate} <= 0, "
            "outside the family"
        )


def solve_adjoint_eigen(mu) -> EigenSolveReport:
    """Solve -f' = mu f within the exponential-polynomial family, exactly.

    Per rate lam the coefficients must satisfy
    (k+1) c_{k+1} = (lam - mu) c_k, which finite support rules out except
    at lam = mu; every solution is therefore a multiple of exp(-mu t), and
    that candidate belongs to the family iff mu > 0.
    """
    mu = _frac(mu)
    if mu > 0:
        return EigenSolveReport(
            eigenvalue=mu, basis=(exp_decay(mu),), excluded_rate=None
        )
    return EigenSolveReport(eigenvalue=mu, basis=(), excluded_rate=mu)


def deficiency_exact():
    """Exact deficiency bases of the half-line model.

    Solves -f' = f (answer: span of exp(-t)) and -f' = -f (answer: empty,
    the candidate grows) and returns the pair of basis lists.
    """
    g1 = solve_adjoint_eigen(1)
    g2 = solve_adjoint_eigen(-1)
    return list(g1.basis), list(g2.basis)


class CanonicalBoundaryValue(NamedTuple):
    """Exact boundary data of the canonical system at a family member.

    The g1 component of f is c * exp(-t) with c = f(0); the boundary map
    value is sqrt(2) c against the NORMALIZED basis vector, which is kept
    unevaluated as the pair (coefficient, basis_norm_sq) so that the module
    stays rational: every identity only ever needs
    2 * c_f * conj(c_g) * basis_norm_sq.  The g2 block is empty.
    """

    g1_coefficient: RationalComplex
    g1_basis_norm_sq: Fraction
    f2: tuple = ()


def canonical_F(f: ExpPoly) -> CanonicalBoundaryValue:
    """Boundary map of the canonical system, exactly.

    Splits f = f0 + c exp(-t) with f0(0) = 0, so c = f(0); the remainder
    f0 is the minimal-domain component and carries no boundary data.
    """
    return CanonicalBoundaryValue(
        g1_coefficient=f.eval0(), g1_basis_norm_sq=norm_sq(exp_decay(1))
    )


def boundary_form(f: ExpPoly, g: ExpPoly) -> RationalComplex:
    """The unitary-form side of the canonical system identity:
    2 c_f conj(c_g) ||exp(-t)||^2, exactly (the g2 block contributes 0)."""
    bf, bg = canonical_F(f), canonical_F(g)
    return bf.g1_coefficient * bg.g1_coefficient.conj() * (2 * bf.g1_basis_norm_sq)


def triplet_attempt():
    """Attempt the system-to-triplet conversion for the half-line model.

    Always raises DimensionMismatch carrying the indices (1, 0): a
    boundary triplet needs a unitary between the deficiency spaces, whose
    dimensions differ here.  The raised error IS the specified outcome.
    """
    g1_basis, g2_basis = deficiency_exact()
    raise DimensionMismatch(
        len(g1_basis),
        len(g2_basis),
        message=(
            "no boundary triplet: converting the canonical system needs a "
            f"unitary between boundary spaces of dimensions "
            f"({len(g1_basis)}, {len(g2_basis)})"
        ),
    )


def canonical_extension_apply(f: ExpPoly) -> ExpPoly:
    """Apply the canonical maximal dissipative extension H: f -> -f'.

    The domain is the trace-zero part of the family (the g2 deficiency
    space is trivial, so nothing is added to the minimal domain); on it
    Re <H f, f> = 0 exactly.
    """
    if not f.eval0().is_zero():
        raise TraceNotZero(
            f"extension domain needs f(0) = 0, got f(0) = {f.eval0()}"
        )
    return _first_order(f, 0, -1)


def resolvent_solve(f: ExpPoly) -> ExpPoly:
    """The unique family member u with u + u' = f and u(0) = 0, exactly.

    This constructively witnesses surjectivity of 1 - H: the integral
    u(t) = exp(-t) * integral_0^t exp(s) f(s) ds, evaluated in integers per
    rate group of f, on its numerators C_a over D:

    - the resonant rate 1 sends t^a exp(-t) to t^(a+1) exp(-t) / (a+1),
      the coefficient C_a / (D (a+1)), which stays inside the family;
    - any other rate lam = p/q has the nonzero gap r = p - q (negative
      when lam < 1).  With top its highest degree, the output at (j, lam)
      is -S_j r^j over D r^(top+1), where
      S_j = sum over a >= j of C_a (a!/j!) q^(a+1-j) r^(top-a),
      by Horner: S_top = q C_top, S_j = q (C_j r^(top-j) + (j+1) S_(j+1));
    - since u(0) = 0, the (0, 1) term is minus the sum of all other
      degree-zero terms.

    Each group's numerators are brought to the lcm G of the groups'
    denominators, and the output over D G is reduced once.  No two groups
    write the same key, and the output is built in canonical order: each
    non-resonant group's terms are found in decreasing degree and
    reversed, and the (0, 1) term goes first at rate 1.
    """
    runs = []  # (p, q, terms, den), the numerators over D den
    for p, q, terms in f._groups:
        if p == q:
            width = math.lcm(*(a + 1 for a, _, _ in terms))
            run = tuple(
                (a + 1, cr * (width // (a + 1)), ci * (width // (a + 1)))
                for a, cr, ci in terms
            )
            runs.append((p, q, run, width))
            continue
        r = p - q
        top = terms[-1][0]
        coeffs = {k: (cr, ci) for k, cr, ci in terms}
        powers = [1]  # r^0 .. r^(top+1)
        for _ in range(top + 1):
            powers.append(powers[-1] * r)
        sign = 1 if powers[-1] > 0 else -1
        run = []  # this group's terms, in decreasing degree
        s_re = s_im = 0
        for j in range(top, -1, -1):
            cr, ci = coeffs.get(j, (0, 0))
            s_re = q * (cr * powers[top - j] + (j + 1) * s_re)
            s_im = q * (ci * powers[top - j] + (j + 1) * s_im)
            if s_re or s_im:
                weight = -sign * powers[j]  # over D |r^(top+1)|
                run.append((j, s_re * weight, s_im * weight))
        runs.append((p, q, tuple(reversed(run)), sign * powers[-1]))
    common = math.lcm(*(den for *_, den in runs))
    out = []
    trace_re = trace_im = 0
    for p, q, run, den in runs:
        factor = common // den
        if factor != 1:
            run = tuple((k, re * factor, im * factor) for k, re, im in run)
        if run[0][0] == 0:
            trace_re -= run[0][1]
            trace_im -= run[0][2]
        out.append((p, q, run))
    if trace_re or trace_im:
        trace = (0, trace_re, trace_im)
        at = next((i for i, (p, q, _) in enumerate(out) if p >= q), len(out))
        if at < len(out) and out[at][0] == out[at][1]:
            out[at] = (1, 1, (trace, *out[at][2]))
        else:
            out.insert(at, (1, 1, (trace,)))
    return _reduced(f._den * common, tuple(out))


class InjectivityReport(NamedTuple):
    """Exact evaluation of Re <(1 - H*) g, g> against <g, g>.

    ``value`` >= ``norm_sq`` holds on the whole family (which makes 1 - H*
    injective), with equality exactly when the g1 component of g vanishes.
    """

    value: Fraction
    norm_sq: Fraction
    holds: bool
    equality: bool
    g1_component_zero: bool


def adjoint_injectivity_check(g: ExpPoly) -> InjectivityReport:
    """Evaluate the injectivity inequality for the adjoint of the canonical
    extension, which acts as +d/dt on the whole family."""
    value = inner_sum_re(((_first_order(g, 1, -1), g),))
    nsq = norm_sq(g)
    trace_zero = g.eval0().is_zero()
    return InjectivityReport(
        value=value,
        norm_sq=nsq,
        holds=value >= nsq,
        equality=value == nsq,
        g1_component_zero=trace_zero,
    )


def _boundary_block_sizes():
    """The (g1, g2) block sizes of the canonical system's boundary space,
    read off ``canonical_F(exp(-t))``: the g1 block is one coefficient,
    which exp(-t) reaches, so that block is all of C^1; the g2 block is the
    tuple ``f2``."""
    value = canonical_F(exp_decay(1))
    return (0 if value.g1_coefficient.is_zero() else 1), len(value.f2)


def _has_self_orthogonal_boundary_subspace() -> bool:
    """Exact search of the boundary space C^1 for a subspace V equal to its
    ``boundary_form``-orthogonal V^perp, whose preimage would be a
    skew-self-adjoint extension.

    C^1 is spanned by the boundary value of exp(-t), so its subspaces are
    {0} and C^1, spanned by () and (exp(-t),).  V^perp is C^1 when the form
    vanishes on V x C^1 and {0} otherwise, and in C^1 a subspace is fixed
    by its dimension.  No V qualifies: C^1 is not neutral, since
    boundary_form(exp(-t), exp(-t)) = 1, and the orthogonal of {0} is C^1.
    """
    e = exp_decay(1)
    for span in ((), (e,)):
        perp_dim = 0 if any(not boundary_form(v, e).is_zero() for v in span) else 1
        if perp_dim == len(span):
            return True
    return False


def existence_summary():
    """The four existence booleans of the finite-dimensional report, evaluated
    exactly for the half-line model, each by its own computation; all four
    are false here."""
    g1_basis, g2_basis = deficiency_exact()
    indices = (len(g1_basis), len(g2_basis))
    try:
        triplet_attempt()
        triplet_ok = True
    except DimensionMismatch:
        triplet_ok = False
    g1_dim, g2_dim = _boundary_block_sizes()
    return {
        "indices": indices,
        "equal_indices": indices[0] == indices[1],
        "has_sksa_extension": _has_self_orthogonal_boundary_subspace(),
        "triplet_constructible": triplet_ok,
        "system_equal_dims": g1_dim == g2_dim,
    }
