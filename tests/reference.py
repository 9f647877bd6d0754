"""Reference constructions the tests check the library against.

The library builds none of these: its pipelines use closed forms and
orthogonal pieces instead.  They are kept here, unchanged, as independent
routes to the same objects (the oblique projection behind the canonical
boundary map, -T* through the swapped orthocomplement, the kernel,
multivalued part and domain of a relation by subspace intersection, the gap
distance by projectors, the gap of the adjoint formula through Graph(H*) as a
complement, the half-line inner product, derivative, a f + b f'
and resolvent term by term, the term records of a half-line function one
dict per term, the canonical order of a term dict and the structure of
the canonical integer form) and as convenient constructors of test inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from skewext import subspace as sub
from skewext.errors import AmbientMismatch, SkewextError
from skewext.halfline import QC, ExpPoly, RationalComplex
from skewext.relation import Relation, adjoint, negate
from skewext.sampling import complex_gaussian
from skewext.subspace import (
    ORTH_TOL,
    RANK_TOL,
    Subspace,
    _check_same_ambient,
    complement,
    span_matrix,
)

_ONE = Fraction(1)


class NotDirect(SkewextError):
    """Raised when summands passed to an oblique projection are not independent."""


class NotInSum(SkewextError):
    """Raised when a vector to be decomposed does not lie in the sum of the parts."""


def sum_of(s: Subspace, t: Subspace, tol: float = RANK_TOL) -> Subspace:
    """The subspace sum S + T."""
    _check_same_ambient(s, t)
    return span_matrix(np.hstack([s.basis, t.basis]), tol)


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """The intersection S `intersect` T, computed as the complement of
    the sum of the complements."""
    _check_same_ambient(s, t)
    return complement(np.hstack([complement(s.basis).basis, complement(t.basis).basis]))


def _coordinate_half(n: int, top: bool) -> Subspace:
    """{(x, 0)} (``top``) or {(0, x')} in C^2n."""
    eye, zeros = np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)
    return Subspace(2 * n, np.vstack([eye, zeros] if top else [zeros, eye]))


def kernel_by_intersection(t: Relation) -> Subspace:
    """ker(T): the first components of Graph(T) cut with {(x, 0)}."""
    n = t.space_dim
    return Subspace(n, intersect(t.graph, _coordinate_half(n, True)).basis[:n, :])


def mul_by_intersection(t: Relation) -> Subspace:
    """mul(T): the second components of Graph(T) cut with {(0, x')}."""
    n = t.space_dim
    return Subspace(n, intersect(t.graph, _coordinate_half(n, False)).basis[n:, :])


def domain_by_intersection(t: Relation) -> Subspace:
    """dom(T) = mul(T*)^perp, with mul(T*) by intersection."""
    return complement(mul_by_intersection(adjoint(t)).basis)


def distance_by_projectors(s: Subspace, t: Subspace) -> float:
    """The gap metric as the 2-norm of the difference of the orthogonal
    projectors."""
    _check_same_ambient(s, t)
    d = s.basis @ s.basis.conj().T - t.basis @ t.basis.conj().T
    return float(np.linalg.norm(d, 2))


def formula_graph(first: Subspace, second: Subspace, negated: bool = True) -> Subspace:
    """The graph of -(S + T), or of S + T when not ``negated``, for graph
    subspaces S, T of C^2n with orthonormal bases orthogonal to each other:
    the bases side by side, then the relation negated."""
    n = first.ambient_dim // 2
    graph = Subspace(2 * n, np.hstack([first.basis, second.basis]))
    summed = Relation(n, graph)
    return (negate(summed) if negated else summed).graph


def adjoint_gap_by_complement(h: Relation, graph: Subspace) -> float:
    """The gap between Graph(H*) and ``graph``: Graph(H*) from
    ``relation.adjoint`` (one complement SVD), then ``subspace.distance``,
    which reads 1.0 when the dimensions differ."""
    return sub.distance(adjoint(h).graph, graph)


def oblique_project(parts, v, tol: float = ORTH_TOL):
    """Decompose a vector along a direct sum of subspaces.

    Given independent ``parts`` (their dimensions sum to the dimension of
    their subspace sum) and a vector ``v`` in that sum, returns the unique
    components ``v_j`` with ``v = sum v_j`` and ``v_j`` in part j.  The
    components are found by one least-squares solve against the
    concatenated bases.

    Raises
    ------
    NotDirect
        If the parts overlap (dimension count fails).
    NotInSum
        If the least-squares residual exceeds ``tol * norm(v)``.
    """
    parts = list(parts)
    if not parts:
        raise NotDirect("need at least one part")
    m = parts[0].ambient_dim
    for p in parts:
        if p.ambient_dim != m:
            raise AmbientMismatch("parts live in different ambient dimensions")
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != m:
        raise AmbientMismatch(f"vector of length {v.shape[0]} in ambient dimension {m}")

    dims = [p.dim for p in parts]
    total = sum(dims)
    stacked = np.hstack([p.basis for p in parts])
    if span_matrix(stacked).dim != total:
        raise NotDirect(f"parts overlap: dimensions {dims} do not sum directly")

    if total == 0:
        if float(np.linalg.norm(v)) > tol * max(1.0, float(np.linalg.norm(v))):
            raise NotInSum("nonzero vector in the zero sum")
        return [np.zeros(m, dtype=complex) for _ in parts]

    coeffs, _, _, _ = np.linalg.lstsq(stacked, v, rcond=None)
    residual = float(np.linalg.norm(stacked @ coeffs - v))
    if residual > tol * float(np.linalg.norm(v)):
        raise NotInSum(
            f"vector is not in the sum of the parts (residual {residual:.3e})"
        )
    out = []
    offset = 0
    for p, k in zip(parts, dims):
        out.append(p.basis @ coeffs[offset : offset + k])
        offset += k
    return out


def full_relation(n: int) -> Relation:
    """The relation whose graph is all of C^2n."""
    return Relation(n, sub.full(2 * n))


def from_operator(a, domain: Subspace) -> Relation:
    """The relation {(x, Ax) : x in domain} for a matrix A.

    ``domain`` is a subspace of C^n with n the matrix size.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise AmbientMismatch(f"matrix must be square, got {a.shape}")
    if domain.ambient_dim != n:
        raise AmbientMismatch(
            f"domain ambient dimension {domain.ambient_dim} does not match "
            f"matrix size {n}"
        )
    b = domain.basis
    return Relation(n, sub.span_matrix(np.vstack([b, a @ b])))


def _swap(s: Subspace, n: int) -> Subspace:
    basis = np.vstack([s.basis[n:, :], s.basis[:n, :]])
    return Subspace(2 * n, basis)


def neg_adjoint(t: Relation) -> Relation:
    """The relation -T*, computed as Swap(Graph(T)^perp).

    Swap exchanges the two component blocks; the identity
    Graph(-T*) = Swap(Graph(T)^perp) is the graph-level form of the
    adjoint and is verified in the tests against ``negate(adjoint(t))``.
    """
    return Relation(t.space_dim, _swap(complement(t.graph.basis), t.space_dim))


def random_contraction(
    dim: int, rng: np.random.Generator, norm_cap: float = 1.0
) -> np.ndarray:
    """Random matrix with largest singular value at most ``norm_cap``."""
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    a = complex_gaussian(dim, dim, rng)
    u, s, vh = np.linalg.svd(a)
    scaled = s / s[0] * rng.uniform(0.0, norm_cap)
    return (u * scaled) @ vh


def random_exppoly(rnd: random.Random, count: int) -> ExpPoly:
    """``count`` terms c t^k e^(-lam t) with distinct (k, lam), k in 0..8,
    lam = p/q with p in 1..12 and q in 1..4, and Im c > 0."""
    terms = {}
    while len(terms) < count:
        key = (rnd.randint(0, 8), Fraction(rnd.randint(1, 12), rnd.randint(1, 4)))
        terms[key] = QC(
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)),
            Fraction(rnd.randint(1, 9), rnd.randint(1, 6)),
        )
    return ExpPoly(terms)


def largest_primes_below(n: int, count: int) -> list:
    """The ``count`` largest primes below ``n``, largest first, by trial
    division."""
    primes = []
    m = n - 1
    while len(primes) < count:
        if all(m % d for d in range(2, math.isqrt(m) + 1)):
            primes.append(m)
        m -= 1
    return primes


def exppoly_to_json(f: ExpPoly) -> list:
    """A function as its list of term records, one dict per term: the plain
    form that ``formats.dumps`` writes an ``ExpPoly`` in."""
    return [
        {"k": k, "lambda": str(lam), "re": str(c.re), "im": str(c.im)}
        for (k, lam), c in f.items()
    ]


def inner_termwise(f: ExpPoly, g: ExpPoly) -> RationalComplex:
    """Exact L2(0, infinity) inner product, conjugate-linear in ``g``.

    Uses the closed form
    integral of t^(a+b) exp(-(lam+mu) t) = (a+b)! / (lam+mu)^(a+b+1).
    """
    total = RationalComplex()
    for (a, lam), c in f.items():
        for (b, mu), d in g.items():
            weight = Fraction(math.factorial(a + b), 1) / (lam + mu) ** (a + b + 1)
            total = total + c * d.conj() * weight
    return total


def _accumulate(acc: dict, key, coeff: RationalComplex):
    total = acc.get(key, RationalComplex()) + coeff
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


def derivative_terms(f: ExpPoly) -> dict:
    """Exact term-wise derivative as a term dict:
    t^k exp(-lam t) -> k t^(k-1) exp(-lam t) - lam t^k exp(-lam t)."""
    out = {}
    for (k, lam), coeff in f.items():
        if k > 0:
            _accumulate(out, (k - 1, lam), coeff * Fraction(k))
        _accumulate(out, (k, lam), coeff * (-lam))
    return out


def derivative_termwise(f: ExpPoly) -> ExpPoly:
    return ExpPoly(derivative_terms(f))


def first_order_terms(f: ExpPoly, a: int, b: int) -> dict:
    """a f + b f', added one exact term at a time, as a term dict."""
    out = {}
    for key, coeff in f.items():
        _accumulate(out, key, coeff * a)
    for key, coeff in derivative_terms(f).items():
        _accumulate(out, key, coeff * b)
    return out


def first_order_termwise(f: ExpPoly, a: int, b: int) -> ExpPoly:
    return ExpPoly(first_order_terms(f, a, b))


def resolvent_terms(f: ExpPoly) -> dict:
    """The unique family member u with u + u' = f and u(0) = 0, exactly, as
    a term dict.

    This constructively witnesses surjectivity of 1 - H: the integral
    u(t) = exp(-t) * integral_0^t exp(s) f(s) ds is evaluated term-wise.
    The rate-1 terms of f are resonant and produce t^(k+1) exp(-t) terms,
    which stay inside the family.
    """
    out = {}
    for (a, lam), c in f.items():
        if lam == 1:
            _accumulate(out, (a + 1, _ONE), c * Fraction(1, a + 1))
            continue
        mu = lam - 1  # rate gap; nonzero, may be negative
        fact = Fraction(math.factorial(a), 1)
        _accumulate(out, (0, _ONE), c * (fact / mu ** (a + 1)))
        for j in range(a + 1):
            weight = Fraction(math.factorial(a), math.factorial(j)) / mu ** (a + 1 - j)
            _accumulate(out, (j, lam), -(c * weight))
    return out


def resolvent_termwise(f: ExpPoly) -> ExpPoly:
    return ExpPoly(resolvent_terms(f))


def sorted_terms(terms: dict) -> tuple:
    """The (key, coefficient) pairs of a term dict with no zero coefficient,
    sorted into canonical (lam, k) order by comparing ``Fraction``s: the
    view ``ExpPoly.items()`` must give."""
    return tuple(sorted(terms.items(), key=lambda item: (item[0][1], item[0][0])))


def assert_canonical(den, groups):
    """Raise AssertionError unless ``(den, groups)`` is a canonical integer
    form of ``halfline``: groups (p, q, terms) of integers, rates p/q with
    p, q > 0 coprime and strictly increasing, degrees nonnegative and
    strictly increasing within a group, no zero term, and gcd(den, every
    numerator) = 1."""
    assert type(den) is int and den >= 1
    assert type(groups) is tuple
    numerators = []
    last = None
    for group in groups:
        assert type(group) is tuple and len(group) == 3
        p, q, terms = group
        assert type(p) is int and type(q) is int
        assert p > 0 and q > 0 and math.gcd(p, q) == 1
        assert last is None or last[0] * q < p * last[1]
        last = (p, q)
        assert type(terms) is tuple and terms
        degrees = [k for k, _, _ in terms]
        assert all(type(k) is int for k in degrees) and degrees[0] >= 0
        assert all(a < b for a, b in zip(degrees, degrees[1:]))
        for _, re, im in terms:
            assert type(re) is int and type(im) is int and (re or im)
            numerators += (re, im)
    assert math.gcd(den, *numerators) == 1
