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

The three kernels, ``inner_sum``, ``_first_order`` (a f + b f': the
derivative, -f' and the resolvent check u + u') and ``resolvent_solve``,
take one integer route (``_integer_groups``): a function is scaled to
integer coefficients once (D, the lcm of all coefficient denominators) and
its terms are grouped by rate.  ``inner_sum`` is the exact sum of inner
products over a sequence of pairs, which is also the inner product on a
direct sum of half-lines; ``inner`` is its one-pair case, and the left side
of ``green_identity`` is one call on two pairs.  It brings all pairs to one
integer scale and all rates to one denominator, and evaluates the closed
form integral of t^m exp(-s t) = m! / s^(m+1) with term pairs summed in
integers per rate sum s = N/M and total degree m, in buckets the pairs
share.  Each rate sum becomes one integer numerator over N^(top+1), by
Horner with the weights m! M^(m+1) built once per distinct M, and those
fractions are added by a balanced pairwise sum, so a call builds a single
``RationalComplex``, its result.  ``_first_order`` and the resolvent form
each output coefficient as one integer numerator over one denominator per
rate group, and build one ``RationalComplex`` per nonzero output term.
Since ``Fraction``s are canonical, every result equals the term-wise sum
exactly.

Validation happens once, at the input edge: ``ExpPoly(...)`` and
``formats.exppoly_from_json`` check every key (``_check_key``) and sort on
exact integer keys (``_canonical_order``), the decoder with no dict.
Kernel outputs, and negation, scaling and sums of valid functions, already
have valid keys in canonical order and go through the one trusted
constructor ``ExpPoly._from_sorted``, which skips the checks; the test
suite wraps it to run them all again.  Equality compares the sorted term
sequences, with no hashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InvalidTerm, NotExact, TraceNotZero

#: Caps keeping exact term growth bounded; the degree cap limits input
#: functions only (``formats.exppoly_from_json``), not derived ones.
MAX_DEGREE = 32
MAX_RATE_DENOMINATOR = 10**6

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise NotExact(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = _ZERO
    im: Fraction = _ZERO

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

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

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


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
    positive rational; every key is checked, then zero coefficients are
    dropped and keys are kept in canonical (lam, k) order.  Instances are
    immutable.  Kernel outputs, whose keys are valid and already in that
    order, are built by ``_from_sorted`` without the checks.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = []
        for (k, lam), coeff in (terms or {}).items():
            lam = _frac(lam)
            _check_key(k, lam)
            coeff = _coerce(coeff)
            if not coeff.is_zero():
                items.append(((k, lam), coeff))
        object.__setattr__(self, "_terms", _canonical_order(items))

    @classmethod
    def _from_sorted(cls, items) -> "ExpPoly":
        """The function with the (key, coefficient) pairs ``items``, trusted
        to be what ``__init__`` would build: valid keys in canonical order,
        no key twice, every coefficient a nonzero ``RationalComplex``."""
        f = object.__new__(cls)
        object.__setattr__(f, "_terms", tuple(items))
        return f

    @property
    def terms(self):
        """Term mapping (k, lam) -> coefficient, as a fresh dict."""
        return dict(self._terms)

    def items(self) -> tuple:
        """The (key, coefficient) pairs in canonical order, not copied."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        # both are in canonical order, so equal functions have equal sequences
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        items = self._terms + other._terms
        ranks = _ranks(items)
        # two sorted runs, which the sort merges; a key held by both
        # operands is one pair of neighbours
        out = []
        last = None
        for i in sorted(range(len(items)), key=ranks.__getitem__):
            key, coeff = items[i]
            if ranks[i] == last:
                coeff = out.pop()[1] + coeff
                if coeff.is_zero():
                    continue
            last = ranks[i]
            out.append((key, coeff))
        return ExpPoly._from_sorted(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExpPoly._from_sorted((key, -coeff) for key, coeff in self._terms)

    def scale(self, c) -> "ExpPoly":
        c = _coerce(c)
        if c.is_zero():
            return ExpPoly._from_sorted(())
        return ExpPoly._from_sorted((key, c * coeff) for key, coeff in self._terms)

    def derivative(self) -> "ExpPoly":
        """Exact derivative, from
        t^k exp(-lam t) -> k t^(k-1) exp(-lam t) - lam t^k exp(-lam t).

        Computed in integers per rate group lam = p/q, on the coefficients
        scaled by D as in ``inner``: the degree-j output is
        (q (j+1) C_(j+1) - p C_j) / (D q) (see ``_first_order``)."""
        return _first_order(self, 0, 1)

    def plus_derivative(self) -> "ExpPoly":
        """(1 + d/dt) f, the left side of the resolvent equation u + u' = f,
        computed by the same kernel as ``derivative``."""
        return _first_order(self, 1, 1)

    def eval0(self) -> RationalComplex:
        """The boundary trace f(0): the sum of all degree-zero coefficients."""
        total = RationalComplex()
        for (k, _), coeff in self._terms:
            if k == 0:
                total = total + coeff
        return total

    def __repr__(self):
        if self.is_zero():
            return "ExpPoly(0)"
        bits = [f"({coeff}) t^{k} e^(-{lam} t)" for (k, lam), coeff in self._terms]
        return "ExpPoly(" + " + ".join(bits) + ")"


def _ranks(items) -> list:
    """Exact integer sort keys of (key, coefficient) pairs in canonical
    (lam, k) order: with L the lcm of the rate denominators, lam = p/q ranks
    as (p (L // q), k).  Integers compare in C, and unlike ``float(lam)``
    they do not overflow above about 1e308."""
    scale = math.lcm(*(lam.denominator for (_, lam), _ in items))
    return [
        (lam.numerator * (scale // lam.denominator), k) for (k, lam), _ in items
    ]


def _check_key(k, lam: Fraction):
    """Raise InvalidTerm unless the degree ``k`` is a nonnegative integer and
    the rate ``lam`` is positive with a denominator within the cap."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise InvalidTerm(f"degree must be a nonnegative integer, got {k!r}")
    if lam <= 0:
        raise InvalidTerm(f"rate must be positive, got {lam}")
    if lam.denominator > MAX_RATE_DENOMINATOR:
        raise InvalidTerm(f"rate denominator {lam.denominator} exceeds the cap")


def _canonical_order(items) -> tuple:
    """The (key, coefficient) pairs ``items``, with checked keys, sorted into
    canonical (lam, k) order by ``_ranks``; InvalidTerm if a key repeats."""
    ranks = _ranks(items)
    order = sorted(range(len(items)), key=ranks.__getitem__)
    for i, j in zip(order, order[1:]):
        if ranks[i] == ranks[j]:
            raise InvalidTerm(f"duplicate term key {items[i][0]}")
    return tuple(items[i] for i in order)


def term(k: int, lam, re=0, im=0) -> ExpPoly:
    """The single term (re + im*i) t^k exp(-lam t)."""
    return ExpPoly({(k, _frac(lam)): RationalComplex(_frac(re), _frac(im))})


def exp_decay(lam=1) -> ExpPoly:
    """exp(-lam t)."""
    return term(0, lam, 1)


def _integer_groups(f: ExpPoly):
    """``f`` scaled to integers once: ``(D, groups)`` with D the lcm of the
    denominators of all real and imaginary parts, and ``groups`` a list with
    one entry ``(lam, p, q, terms)`` per rate lam = p/q, in increasing
    order of lam, where ``terms`` lists (k, D re c, D im c) in increasing
    order of k.  The terms of ``f`` are already sorted by (lam, k), so the
    groups are read off in one pass without hashing a rate."""
    coeffs = [c for _, c in f._terms]
    scale = math.lcm(
        *(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs)
    )
    groups = []
    last = None
    for (k, lam), c in f._terms:
        ratio = lam.as_integer_ratio()
        if ratio != last:
            last = ratio
            terms = []
            groups.append((lam, *ratio, terms))
        terms.append(
            (
                k,
                c.re.numerator * (scale // c.re.denominator),
                c.im.numerator * (scale // c.im.denominator),
            )
        )
    return scale, groups


def _first_order(f: ExpPoly, a: int, b: int) -> ExpPoly:
    """a f + b f', exactly, for integers a and b.

    At rate lam = p/q with integer coefficients C_k = D c_k, the output
    coefficient at degree j is

        (a q - b p) C_j + b q (j+1) C_(j+1)   over   D q,

    one ``Fraction`` pair and one ``RationalComplex`` per nonzero output
    term; zero sums drop their key.  Groups come in increasing rate and
    degrees in increasing order, so the output is built in canonical order.
    """
    scale, groups = _integer_groups(f)
    out = []
    for lam, p, q, terms in groups:
        coeffs = {k: (cr, ci) for k, cr, ci in terms}
        den = scale * q
        here, up = a * q - b * p, b * q
        for j in sorted({*coeffs, *(k - 1 for k in coeffs if k)}):
            cr, ci = coeffs.get(j, (0, 0))
            nr, ni = coeffs.get(j + 1, (0, 0))
            num_re = here * cr + up * (j + 1) * nr
            num_im = here * ci + up * (j + 1) * ni
            if num_re or num_im:
                coeff = RationalComplex(Fraction(num_re, den), Fraction(num_im, den))
                out.append(((j, lam), coeff))
    return ExpPoly._from_sorted(out)


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


def inner_sum(pairs) -> RationalComplex:
    """The exact sum of the L2(0, infinity) inner products <f_i, g_i> over a
    sequence of pairs ``(f_i, g_i)``, each conjugate-linear in ``g_i``.

    It is also the inner product on a direct sum of half-lines.  Each term
    pair contributes c conj(d) m! / s^(m+1), from the closed form integral
    of t^m exp(-s t) = m! / s^(m+1), with m = a + b and s = lam + mu.  All
    pairs are brought to one integer scale: with D_f and D_g the lcms of a
    pair's coefficient denominators (``_integer_groups``), D is the lcm of
    the products D_f D_g over all pairs, and each f is scaled by D / D_g
    instead of D_f.  Every rate is written over the lcm L of all rate
    denominators, so a rate sum s is an integer S over L.  The integer
    products (D c / D_g) conj(D_g d) are added per S (different rate pairs,
    and different pairs of functions, often share one) and per total degree
    m, into P_m.  Each rate sum s = N/M in lowest terms then gives the
    single integer numerator

        sum over m of P_m m! M^(m+1) N^(top-m)   over   N^(top+1),

    top being its highest degree, by Horner in N with the weights
    m! M^(m+1) built once per distinct M.  These fractions are added by a
    balanced pairwise sum (``_pairwise_sum``) and divided by D once, so a
    call builds a single ``RationalComplex``, its result.  Since
    ``Fraction``s are canonical, it equals the term-wise sum exactly.
    """
    prepared = []
    for f, g in pairs:
        if f.is_zero() or g.is_zero():
            continue
        f_scale, f_groups = _integer_groups(f)
        g_scale, g_groups = _integer_groups(g)
        prepared.append((f_scale * g_scale, f_groups, g_groups))
    if not prepared:
        return RationalComplex()
    scale = math.lcm(*(pair_scale for pair_scale, _, _ in prepared))
    rate_den = math.lcm(
        *(q for _, f_groups, g_groups in prepared for _, _, q, _ in f_groups + g_groups)
    )
    width = 1 + max(
        max(terms[-1][0] for *_, terms in f_groups)
        + max(terms[-1][0] for *_, terms in g_groups)
        for _, f_groups, g_groups in prepared
    )
    buckets = {}  # S -> (P_m real parts, P_m imaginary parts)
    for pair_scale, f_groups, g_groups in prepared:
        factor = scale // pair_scale
        g_rates = [(r * (rate_den // s), g_terms) for _, r, s, g_terms in g_groups]
        for _, p, q, f_terms in f_groups:
            f_rate = p * (rate_den // q)
            if factor != 1:
                f_terms = [(a, cr * factor, ci * factor) for a, cr, ci in f_terms]
            for g_rate, g_terms in g_rates:
                sums = buckets.get(f_rate + g_rate)
                if sums is None:
                    sums = buckets[f_rate + g_rate] = ([0] * width, [0] * width)
                sum_re, sum_im = sums
                for a, cr, ci in f_terms:
                    for b, dr, di in g_terms:
                        sum_re[a + b] += cr * dr + ci * di
                        sum_im[a + b] += ci * dr - cr * di
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
        parts.append((num_re, num_im, n ** (top + 1)))
    num_re, num_im, den = _pairwise_sum(parts)
    den *= scale
    return RationalComplex(Fraction(num_re, den), Fraction(num_im, den))


def inner(f: ExpPoly, g: ExpPoly) -> RationalComplex:
    """Exact L2(0, infinity) inner product, conjugate-linear in ``g``: the
    one-pair case of ``inner_sum``."""
    return inner_sum(((f, g),))


def norm_sq(f: ExpPoly) -> Fraction:
    return inner(f, f).re


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


@dataclass(frozen=True)
class EigenSolveReport:
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


@dataclass(frozen=True)
class CanonicalBoundaryValue:
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
    rate group of f, with coefficients C_a = D c_a as in ``inner``:

    - the resonant rate 1 sends t^a exp(-t) to t^(a+1) exp(-t) / (a+1),
      the coefficient C_a / (D (a+1)), which stays inside the family;
    - any other rate lam = p/q has the nonzero gap r = p - q (negative
      when lam < 1).  With top its highest degree, the output at (j, lam)
      is -S_j over D r^(top+1-j), where
      S_j = sum over a >= j of C_a (a!/j!) q^(a+1-j) r^(top-a),
      by Horner: S_top = q C_top, S_j = q (C_j r^(top-j) + (j+1) S_(j+1));
    - since u(0) = 0, the (0, 1) term is the sum of S_0 / (D r^(top+1))
      over the non-resonant groups, added by ``_pairwise_sum``.

    No two groups write the same key, so each nonzero output term is one
    ``Fraction`` pair and one ``RationalComplex``.  The output is built in
    canonical order: each non-resonant group's terms are found in
    decreasing degree and reversed, and the (0, 1) term goes after the
    groups of rate below 1.
    """
    scale, groups = _integer_groups(f)
    out = []
    split = None  # where the rates >= 1 begin, the place of the (0, 1) term
    parts = []  # (S_0 real, S_0 imaginary, r^(top+1)) per non-resonant group
    for lam, p, q, terms in groups:
        if split is None and p >= q:
            split = len(out)
        if p == q:
            for a, cr, ci in terms:
                den = scale * (a + 1)
                coeff = RationalComplex(Fraction(cr, den), Fraction(ci, den))
                out.append(((a + 1, lam), coeff))
            continue
        r = p - q
        top = terms[-1][0]
        coeffs = {k: (cr, ci) for k, cr, ci in terms}
        run = []  # this group's terms, in decreasing degree
        s_re = s_im = 0
        power = 1  # r^(top-j)
        for j in range(top, -1, -1):
            cr, ci = coeffs.get(j, (0, 0))
            s_re = q * (cr * power + (j + 1) * s_re)
            s_im = q * (ci * power + (j + 1) * s_im)
            power *= r
            if s_re or s_im:
                den = -scale * power
                coeff = RationalComplex(Fraction(s_re, den), Fraction(s_im, den))
                run.append(((j, lam), coeff))
        out += reversed(run)
        parts.append((s_re, s_im, power))
    num_re, num_im, den = _pairwise_sum(parts)
    if num_re or num_im:
        den *= scale
        trace = RationalComplex(Fraction(num_re, den), Fraction(num_im, den))
        out.insert(len(out) if split is None else split, ((0, _ONE), trace))
    return ExpPoly._from_sorted(out)


@dataclass(frozen=True)
class InjectivityReport:
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
    value = (inner(g, g) - inner(g.derivative(), g)).re
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
