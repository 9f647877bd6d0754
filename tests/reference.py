"""Reference constructions the tests check the library against.

The library builds none of these: its pipelines use closed forms and
orthogonal pieces instead.  They are kept here, unchanged, as independent
routes to the same objects (the oblique projection behind the canonical
boundary map, -T* through the swapped orthocomplement, the kernel,
multivalued part and domain of a relation by subspace intersection, the gap
distance by projectors, the gap of the adjoint formula through Graph(H*) as
a complement and as the spectral norm of the library's gap matrix, the
orthogonal complement of any matrix as one full SVD with a rank cut (the
library's one complement, a complete QR, takes only matrices of full column
rank), the adjoint and the deficiency spaces as such SVD complements, the
spectral norm, unitarity, full row rank and the range condition of
maximality by SVD and dissipativity by one eigensolve (the library decides
them by bounds where it can, and otherwise reads them off Gram matrices and
the spectrum of Omega), the co-isometry defect and the orthonormality
check of a basis with the identity subtracted as first written (through
``np.diag_indices_from`` and ``np.eye``; the library lowers the diagonal
at a flat stride), the pieces of the canonical decomposition as
subspaces, the half-line inner product, derivative, a f + b f'
and resolvent term by term, the term records of a half-line function one
dict per term, the canonical order of a term dict and the structure of
the canonical integer form, the array object of a matrix entry by entry)
and as convenient constructors of test inputs (the list form of a
matrix).
"""

from __future__ import annotations

import base64
import math
import random
import struct
from fractions import Fraction

import numpy as np

from skewext import subspace as sub
from skewext.errors import AmbientMismatch, SkewextError
from skewext.halfline import ExpPoly, RationalComplex
from skewext.boundary import BoundarySystem, _canonical_blocks
from skewext.linalg import _padded, as_inexact, matrix_2norm
from skewext.relation import Relation, _adjoint_gap_matrix, _omega, adjoint, negate
from skewext.sampling import complex_gaussian
from skewext.subspace import (
    ORTH_TOL,
    RANK_TOL,
    Subspace,
    _canonical_phases,
    _check_same_ambient,
    numerical_rank,
    span_matrix,
)
from skewext.tolerances import UNITARY_TOL

_ONE = Fraction(1)


class NotDirect(SkewextError):
    """Raised when summands passed to an oblique projection are not independent."""


class NotInSum(SkewextError):
    """Raised when a vector to be decomposed does not lie in the sum of the parts."""


def full(m: int) -> Subspace:
    """All of C^m."""
    return Subspace(m, np.eye(m, dtype=complex))


def complement(a: np.ndarray) -> Subspace:
    """Orthogonal complement of the column span of any complex matrix.

    One full SVD: the left singular vectors past the numerical rank at
    relative tolerance ``RANK_TOL``.  A matrix without columns, or with only
    zero entries, has the whole space as its complement.
    """
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    if a.shape[1] == 0 or not np.any(a):
        return full(m)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    return Subspace(m, _canonical_phases(u[:, numerical_rank(s) :]))


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
    ``relation.adjoint`` (one complement QR), then
    ``distance_by_projectors``, which reads 1 up to round-off when the
    dimensions differ."""
    return distance_by_projectors(adjoint(h).graph, graph)


def adjoint_by_svd(t: Relation) -> Relation:
    """T*, with Graph(T*) = (J Graph(T))^perp for J(x, x') = (-x', x) as
    the SVD complement of J B with its rank cut (``complement``)."""
    x, xp = t.blocks()
    return Relation(t.space_dim, complement(np.vstack([-xp, x])))


def deficiency_by_svd(t: Relation):
    """(g1, g2) = (ran(1 - T)^perp, ran(1 + T)^perp) as the SVD complements,
    with their rank cut, of X - X' and X + X' for the graph blocks (X, X')."""
    x, xp = t.blocks()
    return complement(x - xp), complement(x + xp)


def adjoint_gap(t: Relation, basis: np.ndarray) -> float:
    """The gap between Graph(T*) and the span of the orthonormal columns
    ``basis`` of C^2n: the spectral norm of the library's gap matrix
    (``relation._adjoint_gap_matrix``), inf when the dimensions do not add
    to 2n.  The library holds that matrix against a tolerance by its
    Frobenius norm first (``relation.adjoint_gap_within``)."""
    gap = _adjoint_gap_matrix(t, basis)
    return math.inf if gap is None else matrix_2norm(gap)


def matrix_2norm_by_svd(m) -> float:
    """The spectral norm as the largest singular value of one SVD of the
    complex matrix, 0 for the empty matrix."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def is_unitary_by_svd(m) -> bool:
    """Whether a square matrix has all singular values within
    ``UNITARY_TOL`` of 1, from one SVD of its complex copy."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if m.size == 0:
        return True
    s = np.linalg.svd(m, compute_uv=False)
    return float(np.max(np.abs(s - 1.0))) <= UNITARY_TOL


def coisometry_defect_by_diag_indices(m) -> float:
    """``linalg.coisometry_defect`` as first written: the diagonal of
    M M^H lowered through ``np.diag_indices_from``, the library's padding
    (``linalg._padded``) applied to ||M M^H - I||_F."""
    m = as_inexact(m)
    gram = m @ m.conj().T
    gram[np.diag_indices_from(gram)] -= 1.0
    value = math.sqrt(np.vdot(gram, gram).real)
    return _padded(value, m.size, 1.0 + value)


def identity_deviation_by_eye(gram: np.ndarray) -> float:
    """The deviation of a nonempty square Gram matrix from the identity that
    ``Subspace`` holds against ``ORTH_TOL``, as first written: the largest
    modulus of ``gram - np.eye(k)``."""
    return np.max(np.abs(gram - np.eye(gram.shape[1])))


def has_full_row_rank_by_svd(m) -> bool:
    """Whether the numerical rank of ``m`` (one SVD, the package's relative
    cut) equals its row count."""
    m = as_inexact(m)
    return m.shape[0] == 0 or numerical_rank(
        np.linalg.svd(m, compute_uv=False)
    ) == m.shape[0]


def is_dissipative_by_eigensolve(h: Relation, tol: float = ORTH_TOL) -> bool:
    """Whether the largest eigenvalue of Omega on the graph basis, from one
    Hermitian eigensolve of the matrix the graph holds, is at most 2 tol."""
    if h.graph_dim == 0:
        return True
    return float(np.linalg.eigvalsh(_omega(h.graph))[-1]) <= 2.0 * tol


def one_minus_singular_values(h: Relation) -> np.ndarray:
    """The singular values of X - X' for the graph blocks (X, X'), in
    descending order, from one SVD: ran(1 - H) is its column span."""
    x, xp = h.blocks()
    return np.linalg.svd(x - xp, compute_uv=False)


def is_maximal_dissipative_by_svd(h: Relation, tol: float = ORTH_TOL) -> bool:
    """Dissipative by the eigensolve (``is_dissipative_by_eigensolve``) with
    ran(1 - H) = C^n, the range condition as the numerical rank of X - X'
    by SVD, at the package's relative rank cut."""
    rank = numerical_rank(one_minus_singular_values(h))
    return is_dissipative_by_eigensolve(h, tol) and rank == h.space_dim


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


def canonical_pieces(s: BoundarySystem):
    """The pieces (G_neg, Ghat1, Ghat2) of the orthogonal graph-level
    decomposition of Graph(H0*), for a canonical system: G_neg = Graph(-H0),
    Ghat1 = {(x, x) : x in g1} and Ghat2 = {(x, -x) : x in g2}, spanned by
    the three column blocks of its Graph(H0*) basis
    (``boundary._canonical_blocks``), each checked orthonormal."""
    return tuple(Subspace(b.shape[0], b) for b in _canonical_blocks(s))


def full_relation(n: int) -> Relation:
    """The relation whose graph is all of C^2n."""
    return Relation(n, full(2 * n))


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
        terms[key] = RationalComplex(
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


def array_object(m) -> dict:
    """The array object of a complex matrix, entry by entry: the real and
    imaginary parts of each entry packed as little-endian doubles, row by
    row, then base64."""
    m = np.asarray(m, dtype=complex)
    raw = b"".join(struct.pack("<dd", z.real, z.imag) for row in m for z in row)
    return {
        "b64": base64.b64encode(raw).decode("ascii"),
        "dtype": "<c16",
        "shape": list(m.shape),
    }


def pairs(m) -> list:
    """The list form of a complex matrix: its rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


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
