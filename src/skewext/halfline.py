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

Every identity goes through ``inner``, which evaluates the closed form
integral of t^m exp(-s t) = m! / s^(m+1) grouped: both functions are
scaled to integer coefficients once, term pairs are summed in integers per
rate sum s = N/M and total degree m, each rate sum becomes one integer
numerator over N^(top+1), and those are added over one common denominator,
so a call builds a single ``RationalComplex``, its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, TraceNotZero

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
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


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
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalComplex")


QC = RationalComplex  # short constructor alias used heavily in tests


class ExpPoly:
    """A finite sum of terms c * t^k * exp(-lam t) with exact coefficients.

    Terms are keyed by (k, lam) with k a nonnegative integer and lam a
    positive rational; zero coefficients are dropped and keys are kept in
    canonical order.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canon = {}
        for (k, lam), coeff in (terms or {}).items():
            lam = _frac(lam)
            coeff = _coerce(coeff)
            if coeff.is_zero():
                continue
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
            if lam <= 0:
                raise ValueError(f"rate must be positive, got {lam}")
            if lam.denominator > MAX_RATE_DENOMINATOR:
                raise ValueError(
                    f"rate denominator {lam.denominator} exceeds the cap"
                )
            key = (k, lam)
            if key in canon:
                raise ValueError(f"duplicate term key {key}")
            canon[key] = coeff
        object.__setattr__(
            self, "_terms", dict(sorted(canon.items(), key=lambda kv: (kv[0][1], kv[0][0])))
        )

    @property
    def terms(self):
        """Term mapping (k, lam) -> coefficient, as a fresh dict."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, RationalComplex()) + coeff
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return ExpPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExpPoly({key: -coeff for key, coeff in self._terms.items()})

    def scale(self, c) -> "ExpPoly":
        c = _coerce(c)
        return ExpPoly({key: c * coeff for key, coeff in self._terms.items()})

    def derivative(self) -> "ExpPoly":
        """Exact term-wise derivative:
        t^k exp(-lam t) -> k t^(k-1) exp(-lam t) - lam t^k exp(-lam t)."""
        out = {}
        for (k, lam), coeff in self._terms.items():
            if k > 0:
                _accumulate(out, (k - 1, lam), coeff * Fraction(k))
            _accumulate(out, (k, lam), coeff * (-lam))
        return ExpPoly(out)

    def eval0(self) -> RationalComplex:
        """The boundary trace f(0): the sum of all degree-zero coefficients."""
        total = RationalComplex()
        for (k, _), coeff in self._terms.items():
            if k == 0:
                total = total + coeff
        return total

    def __repr__(self):
        if self.is_zero():
            return "ExpPoly(0)"
        bits = [
            f"({coeff}) t^{k} e^(-{lam} t)" for (k, lam), coeff in self._terms.items()
        ]
        return "ExpPoly(" + " + ".join(bits) + ")"


def _accumulate(acc: dict, key, coeff: RationalComplex):
    total = acc.get(key, RationalComplex()) + coeff
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


def term(k: int, lam, re=0, im=0) -> ExpPoly:
    """The single term (re + im*i) t^k exp(-lam t)."""
    return ExpPoly({(k, _frac(lam)): RationalComplex(_frac(re), _frac(im))})


def exp_decay(lam=1) -> ExpPoly:
    """exp(-lam t)."""
    return term(0, lam, 1)


def _integer_groups(f: ExpPoly):
    """``f`` scaled to integers once: ``(D, groups)`` with D the lcm of the
    denominators of all real and imaginary parts, and ``groups`` mapping
    each rate p/q, as the pair (p, q), to its terms (k, D re c, D im c)."""
    coeffs = f._terms.values()
    scale = math.lcm(
        *(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs)
    )
    groups = {}
    for (k, lam), c in f._terms.items():
        groups.setdefault((lam.numerator, lam.denominator), []).append(
            (
                k,
                c.re.numerator * (scale // c.re.denominator),
                c.im.numerator * (scale // c.im.denominator),
            )
        )
    return scale, groups


def inner(f: ExpPoly, g: ExpPoly) -> RationalComplex:
    """Exact L2(0, infinity) inner product, conjugate-linear in ``g``.

    Each term pair contributes c conj(d) m! / s^(m+1), from the closed form
    integral of t^m exp(-s t) = m! / s^(m+1), with m = a + b and
    s = lam + mu.  The sum is taken in integers: with D_f and D_g the
    lcms of the coefficient denominators, the integer products
    (D_f c) conj(D_g d) are added up per rate sum s = N/M (different rate
    pairs often share one) and per total degree m, into P_m.  Each rate sum
    then gives the single integer numerator

        sum over m of P_m m! M^(m+1) N^(top-m)   over   N^(top+1),

    top being its highest degree; the numerators are added over the lcm of
    these denominators, which is divided by D_f D_g once.  The result
    equals the term-wise sum exactly, since ``Fraction``s are canonical.
    """
    if f.is_zero() or g.is_zero():
        return RationalComplex()
    f_scale, f_groups = _integer_groups(f)
    g_scale, g_groups = _integer_groups(g)
    width = max(k for k, _ in f._terms) + max(k for k, _ in g._terms) + 1
    buckets = {}  # (N, M) -> (P_m real parts, P_m imaginary parts)
    for (p, q), f_terms in f_groups.items():
        for (r, s), g_terms in g_groups.items():
            n, m = p * s + r * q, q * s
            h = math.gcd(n, m)
            key = (n // h, m // h)
            sums = buckets.get(key)
            if sums is None:
                sums = buckets[key] = ([0] * width, [0] * width)
            sum_re, sum_im = sums
            for a, cr, ci in f_terms:
                for b, dr, di in g_terms:
                    sum_re[a + b] += cr * dr + ci * di
                    sum_im[a + b] += ci * dr - cr * di
    parts = []
    for (n, m), (sum_re, sum_im) in buckets.items():
        top = width - 1
        while top and not (sum_re[top] or sum_im[top]):
            top -= 1
        # Horner in N; weight = deg! M^(deg+1)
        num_re = num_im = 0
        weight = m
        for deg in range(top + 1):
            num_re = num_re * n + sum_re[deg] * weight
            num_im = num_im * n + sum_im[deg] * weight
            weight *= m * (deg + 1)
        parts.append((num_re, num_im, n ** (top + 1)))
    den = math.lcm(*(d for _, _, d in parts))
    num_re = num_im = 0
    for part_re, part_im, part_den in parts:
        factor = den // part_den
        num_re += part_re * factor
        num_im += part_im * factor
    den *= f_scale * g_scale
    return RationalComplex(Fraction(num_re, den), Fraction(num_im, den))


def norm_sq(f: ExpPoly) -> Fraction:
    return inner(f, f).re


def adjoint_apply(f: ExpPoly) -> ExpPoly:
    """The adjoint of the minimal operator acts as -d/dt on the whole family."""
    return -f.derivative()


def green_identity(f: ExpPoly, g: ExpPoly):
    """Both sides of the boundary-form identity, exactly.

    Returns (lhs, rhs) with lhs = <H* f, g> + <f, H* g> for H* = -d/dt and
    rhs = f(0) * conj(g(0)); integration by parts makes them equal on the
    whole family.
    """
    lhs = inner(adjoint_apply(f), g) + inner(f, adjoint_apply(g))
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
    return -f.derivative()


def resolvent_solve(f: ExpPoly) -> ExpPoly:
    """The unique family member u with u + u' = f and u(0) = 0, exactly.

    This constructively witnesses surjectivity of 1 - H: the integral
    u(t) = exp(-t) * integral_0^t exp(s) f(s) ds is evaluated term-wise.
    The rate-1 terms of f are resonant and produce t^(k+1) exp(-t) terms,
    which stay inside the family.
    """
    out = {}
    for (a, lam), c in f._terms.items():
        if lam == 1:
            _accumulate(out, (a + 1, _ONE), c * Fraction(1, a + 1))
            continue
        mu = lam - 1  # rate gap; nonzero, may be negative
        fact = Fraction(math.factorial(a), 1)
        _accumulate(out, (0, _ONE), c * (fact / mu ** (a + 1)))
        for j in range(a + 1):
            weight = Fraction(math.factorial(a), math.factorial(j)) / mu ** (a + 1 - j)
            _accumulate(out, (j, lam), -(c * weight))
    return ExpPoly(out)


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


def existence_summary():
    """The four existence booleans of the finite-dimensional report, evaluated
    exactly for the half-line model; all four are false here."""
    g1_basis, g2_basis = deficiency_exact()
    indices = (len(g1_basis), len(g2_basis))
    equal = indices[0] == indices[1]
    try:
        triplet_attempt()
        triplet_ok = True
    except DimensionMismatch:
        triplet_ok = False
    return {
        "indices": indices,
        "equal_indices": equal,
        "has_sksa_extension": equal,
        "triplet_constructible": triplet_ok,
        "system_equal_dims": equal,
    }
