"""JSON wire formats shared by the CLI and file-based workflows.

Complex numbers in the numeric substrate are [re, im] pairs of doubles;
exact half-line values are "p/q" strings.  Decoders raise ValueError on
malformed input so the CLI can map it to the invalid-input exit code.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from . import halfline as hl
from . import relation as rel
from .boundary import BoundarySystem, BoundaryTriplet
from .extensions import ExtensionParam
from .relation import Relation
from .subspace import RANK_TOL, Subspace


def pair_to_complex(p) -> complex:
    """A finite complex number from a [re, im] pair of JSON numbers."""
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise ValueError(f"expected a [re, im] pair, got {p!r}")
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in p):
        raise ValueError(f"expected numeric pair entries, got {p!r}")
    try:
        z = complex(*p)
    except OverflowError:
        raise ValueError("pair entry does not fit in a double") from None
    if not cmath.isfinite(z):
        raise ValueError(f"expected finite pair entries, got {p!r}")
    return z


def vector_from_json(obj, length=None) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError("vector must be a list of [re, im] pairs")
    v = np.array([pair_to_complex(p) for p in obj], dtype=complex)
    if length is not None and v.shape[0] != length:
        raise ValueError(f"vector has length {v.shape[0]}, expected {length}")
    return v


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError("matrix must be a list of rows")
    rows = [[pair_to_complex(p) for p in row] for row in obj]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("matrix rows have unequal lengths")
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    return np.array(rows, dtype=complex)


def subspace_to_json(s: Subspace) -> list:
    """Basis columns as a list of complex vectors."""
    return matrix_to_json(s.basis.T)


def relation_to_json(t: Relation) -> dict:
    return {
        "n": t.space_dim,
        "graph_generators": subspace_to_json(t.graph),
    }


def relation_from_json(obj, rank_tol=None) -> Relation:
    """Relation from {"n": int, "graph_generators": [2n-vectors]}.

    Generators need not be orthonormal or independent; the span
    normalizes, discarding singular values below ``rank_tol`` relative.
    """
    if not isinstance(obj, dict):
        raise ValueError("relation file must hold a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise ValueError('"n" must be a positive integer')
    gens = obj.get("graph_generators")
    if not isinstance(gens, list):
        raise ValueError('"graph_generators" must be a list of 2n-vectors')
    vectors = [vector_from_json(g, length=2 * n) for g in gens]
    return rel.from_graph(n, vectors, tol=RANK_TOL if rank_tol is None else rank_tol)


def extension_param_from_json(obj) -> ExtensionParam:
    if not isinstance(obj, dict):
        raise ValueError("parameter file must hold a JSON object")
    return ExtensionParam(
        kind=obj.get("kind"), matrix=matrix_from_json(obj.get("matrix"))
    )


def unitary_matrix_from_json(obj) -> np.ndarray:
    """A bare unitary (for --l0 files): {"matrix": ...} or a raw row list."""
    if isinstance(obj, dict):
        obj = obj.get("matrix")
    return matrix_from_json(obj)


def system_to_json(s: BoundarySystem) -> dict:
    return {
        "n": s.base.space_dim,
        "graph_basis": subspace_to_json(s.adjoint_graph),
        "g1_basis": subspace_to_json(s.g1),
        "g2_basis": subspace_to_json(s.g2),
        "F": matrix_to_json(s.f_matrix),
    }


def triplet_to_json(t: BoundaryTriplet) -> dict:
    return {
        "n": t.base.space_dim,
        "graph_basis": subspace_to_json(t.adjoint_graph),
        "g_basis": subspace_to_json(t.g),
        "Gamma1": matrix_to_json(t.gamma1),
        "Gamma2": matrix_to_json(t.gamma2),
    }


def fraction_to_str(x: Fraction) -> str:
    return str(Fraction(x))


def fraction_from_str(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f'expected a "p/q" string, got {s!r}')
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}: {exc}") from None


def rational_complex_to_json(z: hl.RationalComplex) -> dict:
    return {"re": fraction_to_str(z.re), "im": fraction_to_str(z.im)}


def exppoly_to_json(f: hl.ExpPoly) -> list:
    return [
        {
            "k": k,
            "lambda": fraction_to_str(lam),
            "re": fraction_to_str(c.re),
            "im": fraction_to_str(c.im),
        }
        for (k, lam), c in f.terms.items()
    ]


def exppoly_from_json(obj) -> hl.ExpPoly:
    if not isinstance(obj, list):
        raise ValueError("function must be a list of term records")
    terms = {}
    for record in obj:
        if not isinstance(record, dict):
            raise ValueError(f"term record must be an object, got {record!r}")
        k = record.get("k")
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError('"k" must be an integer')
        if k > hl.MAX_DEGREE:
            raise ValueError(f"degree {k} exceeds the cap {hl.MAX_DEGREE}")
        lam = fraction_from_str(record.get("lambda"))
        coeff = hl.RationalComplex(
            fraction_from_str(record.get("re", "0")),
            fraction_from_str(record.get("im", "0")),
        )
        key = (k, lam)
        if key in terms:
            raise ValueError(f"duplicate term for {key}")
        terms[key] = coeff
    return hl.ExpPoly(terms)
