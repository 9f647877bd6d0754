"""JSON wire formats shared by the CLI and file-based workflows.

Complex numbers in the numeric substrate are [re, im] pairs of doubles;
exact half-line values are "p/q" strings.  Encoders keep a complex matrix
as a float64 array of shape (rows, cols, 2) of its pairs, and half-line
functions stay ``ExpPoly`` objects until ``dumps`` writes them, each as
the list of its term records {"k", "lambda", "re", "im"} by one
%-template, the "p/q" digits written from the function's integer form
(``_fraction_digits``), with no ``Fraction`` built.  Digits are written in
blocks (``_int_digits``), so a value longer than CPython's int-to-str
limit is written too, without changing that process-wide limit.  The
decoder ``exppoly_from_json`` builds the integer form straight from the
parsed strings.  ``dumps`` writes a report holding such values with the bytes
of ``json.dumps(..., sort_keys=True, indent=2)``.  One ``orjson`` call
gives the digits of a whole array; ``repr`` writes only the entries whose
magnitude puts ``repr`` in exponent form.  Both write the shortest digits
that round-trip and differ only in how they write an exponent, so the
bytes are ``json``'s.  ``matrix_from_json`` is the one decoder of complex
data.  Decoders raise ValueError on malformed input so the CLI can map it
to the invalid-input exit code.

numpy, ``orjson`` and the relation and extension modules are imported by
the functions that use them, on their first call: the half-line codecs,
and ``dumps`` of a report without arrays, load none of them.  The input
file reader ``_load_json`` and ``_digest_bytes`` live here too, so the
CLI and the relation commands share them without importing one another.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import halfline as hl
from .tolerances import RANK_TOL

if TYPE_CHECKING:
    import numpy as np

    from .boundary import BoundarySystem, BoundaryTriplet
    from .extensions import ExtensionParam
    from .relation import Relation
    from .subspace import Subspace


def _float_to_json(x: float) -> str:
    """A float as ``json`` writes it: its repr, or NaN/Infinity/-Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _list_template(items: list, level: int, brackets: str = "[]") -> str:
    """Items one per line at two-space indent, as ``json`` writes a list, or
    with ``brackets`` "{}" an object's members, at nesting ``level``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (level + 1)
    return (
        brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level
        + brackets[1]
    )


def _array_to_json(a: np.ndarray, level: int) -> str:
    """A finite (rows, cols, 2) float64 array as nested lists: its
    ``orjson`` tokens, with ``repr`` at the exponent-form magnitudes (see
    ``dumps``), filled into an indented %-template."""
    rows, cols, _ = a.shape
    pair = _list_template(["%s", "%s"], level + 2)
    row = _list_template([pair] * cols, level + 1)
    template = _list_template([row] * rows, level)
    flat = a.ravel()
    if not flat.size:
        return template
    # imported here, so that commands whose reports hold no arrays (analyze,
    # sweep, halfline) do not pay its import (datetime, uuid, zoneinfo)
    import numpy as np
    import orjson

    text = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    tokens = text[1:-1].split(",")
    mag = np.abs(flat)
    for i in np.flatnonzero(((mag > 0) & (mag < 1e-4)) | (mag >= 1e16)).tolist():
        tokens[i] = float.__repr__(float(flat[i]))
    return template % tuple(tokens)


def _exppoly_to_json(f: hl.ExpPoly, level: int) -> str:
    """A function as its list of term records at nesting ``level``: each
    record's keys in sorted order ("im", "k", "lambda", "re"), the rationals
    as "p/q" strings written from its integer form (``_fraction_digits``),
    filled into one indented %-template."""
    den, groups = f.integer_form()
    if not groups:
        return "[]"
    values = []
    for _, p, q, terms in groups:
        rate = _fraction_digits(p, q)
        for k, re, im in terms:
            values += (_fraction_digits(im, den), k, rate, _fraction_digits(re, den))
    fields = ['"im": "%s"', '"k": %s', '"lambda": "%s"', '"re": "%s"']
    record = _list_template(fields, level + 1, "{}")
    template = _list_template([record] * (len(values) // 4), level)
    return template % tuple(values)


def dumps(obj) -> str:
    """The report text: byte for byte ``json.dumps(obj, sort_keys=True,
    indent=2)`` and a newline, with every array replaced by its ``tolist()``.

    Arrays must be float64 of shape (rows, cols, 2), as ``matrix_to_json``
    builds them; an ``ExpPoly`` is written as its list of term records, one
    %-template per function; dict keys must be strings.  Any other type
    raises TypeError.  The indented ``json.dumps`` runs the pure-Python
    encoder and ``repr`` of every float, which cost more than the numerics
    on large reports.  Here a finite array is written by one ``orjson`` call
    for its digits and one string format for its layout; ``repr`` writes
    only entries with 0 < |x| < 1e-4 or |x| >= 1e16, where it uses exponent
    form (``1e-05``, ``1e+16``) and ``orjson`` does not (``0.00001``,
    ``1e16``).  Everywhere else both give the shortest round-trip digits,
    so the bytes are ``json``'s.  An array holding NaN or an infinity goes
    through ``tolist()`` and the scalar path.  Pieces are collected in one
    list and joined once, so no container's text is copied into its
    parent's.
    """
    parts = []
    write = parts.append

    def container(items, level: int, brackets: str):
        # items are (prefix, value): a dict's quoted key and ": ", or ""
        if not items:
            write(brackets)
            return
        inner = "\n" + "  " * (level + 1)
        write(brackets[0])
        for i, (prefix, value) in enumerate(items):
            write(("," if i else "") + inner + prefix)
            encode(value, level + 1)
        write("\n" + "  " * level + brackets[1])

    def encode(o, level: int):
        if isinstance(o, str):
            write(encode_basestring_ascii(o))
        elif o is None:
            write("null")
        elif o is True:
            write("true")
        elif o is False:
            write("false")
        elif isinstance(o, int):
            write(int.__repr__(o))
        elif isinstance(o, float):
            write(_float_to_json(o))
        elif isinstance(o, (list, tuple)):
            container([("", v) for v in o], level, "[]")
        elif isinstance(o, dict):
            if not all(isinstance(k, str) for k in o):
                raise TypeError("report keys must be strings")
            keyed = [(encode_basestring_ascii(k) + ": ", o[k]) for k in sorted(o)]
            container(keyed, level, "{}")
        elif isinstance(o, hl.ExpPoly):
            write(_exppoly_to_json(o, level))
        else:
            # arrays come after every builtin type and ``ExpPoly``, so that
            # writing a report without them does not load numpy
            import numpy as np

            if not isinstance(o, np.ndarray):
                name = type(o).__name__
                raise TypeError(f"Object of type {name} is not JSON serializable")
            if o.dtype != np.float64 or o.ndim != 3 or o.shape[2] != 2:
                raise TypeError(
                    f"arrays must be float64 (rows, cols, 2), got {o.dtype} {o.shape}"
                )
            if np.isfinite(o).all():
                write(_array_to_json(o, level))
            else:
                encode(o.tolist(), level)

    encode(obj, 0)
    write("\n")
    return "".join(parts)


def matrix_to_json(m) -> np.ndarray:
    """A complex matrix as a float64 array of shape (rows, cols, 2) holding
    its [re, im] pairs; ``dumps`` writes it as nested lists."""
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1)


def matrix_from_json(obj) -> np.ndarray:
    """A complex matrix from a list of rows of [re, im] pairs.

    The one decoder of complex data (relation generators, parameter and
    reference matrices).  Rows must have equal lengths, every pair exactly
    two entries, and every entry be a JSON integer or float (booleans are
    refused) that is finite and fits in a double.  Types are checked in one
    pass over the entries and the values converted by one ``np.array``.
    """
    import numpy as np

    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError("matrix must be a list of rows of [re, im] pairs")
    widths = {len(row) for row in obj}
    if len(widths) > 1:
        raise ValueError("matrix rows have unequal lengths")
    shape = (len(obj), widths.pop() if widths else 0, 2)
    pairs = [p for row in obj for p in row]
    if not set(map(type, pairs)) <= {list, tuple} or not set(map(len, pairs)) <= {2}:
        raise ValueError("matrix entries must be [re, im] pairs")
    if not {type(x) for p in pairs for x in p} <= {int, float}:
        raise ValueError("pair entries must be JSON numbers")
    try:
        values = np.array(pairs, dtype=float).reshape(shape)
    except OverflowError:
        raise ValueError("pair entry does not fit in a double") from None
    if not np.isfinite(values).all():
        raise ValueError("pair entries must be finite")
    return values.view(complex)[..., 0]


def subspace_to_json(s: Subspace) -> np.ndarray:
    """Basis columns as complex vectors: the rows of ``matrix_to_json``."""
    return matrix_to_json(s.basis.T)


def relation_to_json(t: Relation) -> dict:
    return {
        "n": t.space_dim,
        "graph_generators": subspace_to_json(t.graph),
    }


def relation_from_json(obj, rank_tol: float = RANK_TOL) -> Relation:
    """Relation from {"n": int, "graph_generators": [2n-vectors]}.

    Generators need not be orthonormal or independent; the span
    normalizes, discarding singular values below ``rank_tol`` relative;
    ``rank_tol`` must lie in (0, 1).
    """
    from . import relation as rel

    if not isinstance(obj, dict):
        raise ValueError("relation file must hold a JSON object")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError('"n" must be a positive integer')
    gens = obj.get("graph_generators")
    if not isinstance(gens, list):
        raise ValueError('"graph_generators" must be a list of 2n-vectors')
    vectors = matrix_from_json(gens)
    if gens and vectors.shape[1] != 2 * n:
        raise ValueError(
            f"generators have length {vectors.shape[1]}, expected {2 * n}"
        )
    return rel.from_graph(n, vectors, tol=rank_tol)


def extension_param_from_json(obj) -> ExtensionParam:
    if not isinstance(obj, dict):
        raise ValueError("parameter file must hold a JSON object")
    from .extensions import ExtensionParam

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


def fraction_to_str(x: Fraction) -> str:
    x = x if isinstance(x, Fraction) else Fraction(x)
    return _fraction_digits(x.numerator, x.denominator)


def _ratio_from_str(s) -> tuple:
    """A rational from a JSON integer or a string ``Fraction`` accepts, as
    ``(numerator, denominator)`` with a positive denominator, not reduced.

    The plain ASCII forms ``-?digits`` and ``-?digits/digits`` with a
    nonzero denominator are read by ``int``; every other string (signs,
    spaces, underscores, decimals, exponents, non-ASCII digits, a zero
    denominator) goes to ``Fraction(s)``, whose regex parse costs more.
    Both give the same value and reject the same strings.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    if not isinstance(s, str):
        raise ValueError(f'expected a "p/q" string, got {s!r}')
    try:
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if s.isascii() and digits.isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit() and den.strip("0"):
                return int(num), int(den)
        return Fraction(s).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}: {exc}") from None


def fraction_from_str(s) -> Fraction:
    """A rational from a JSON integer or a string ``Fraction`` accepts, read
    by ``_ratio_from_str``."""
    return Fraction(*_ratio_from_str(s))


def rational_complex_to_json(z: hl.RationalComplex) -> dict:
    return {"re": fraction_to_str(z.re), "im": fraction_to_str(z.im)}


def _raise_first_repeat(items):
    """Raise ValueError naming the first key of ``items`` that repeats an
    earlier one, in input order; return if none does."""
    seen = set()
    for key, _ in items:
        if key in seen:
            raise ValueError(f"duplicate term for {key}")
        seen.add(key)


def exppoly_from_json(obj) -> hl.ExpPoly:
    """A function from a list of term records {"k", "lambda", "re", "im"}.

    Each term is checked once: its record shape, degree type and degree cap
    and its three rationals here, then its degree sign, rate sign and rate
    denominator cap (``halfline._check_key``), and the keys of all terms,
    zero coefficients included, are ordered and compared for repeats by
    their exact integer ranks (``halfline._canonical_order``).  Rates are
    reduced ``Fraction`` keys; coefficients stay integer pairs, brought to
    the lcm of their denominators and reduced by one gcd into the integer
    form, which the trusted constructor takes, with no dict and no
    ``RationalComplex``.  Errors keep their precedence: the first malformed
    record or repeated key in input order, then the first bad key.
    """
    if not isinstance(obj, list):
        raise ValueError("function must be a list of term records")
    items = []
    try:
        for record in obj:
            if not isinstance(record, dict):
                raise ValueError(f"term record must be an object, got {record!r}")
            k = record.get("k")
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError('"k" must be an integer')
            if k > hl.MAX_DEGREE:
                raise ValueError(f"degree {k} exceeds the cap {hl.MAX_DEGREE}")
            lam = fraction_from_str(record.get("lambda"))
            re = _ratio_from_str(record.get("re", "0"))
            im = _ratio_from_str(record.get("im", "0"))
            items.append(((k, lam), re + im))
        for (k, lam), _ in items:
            hl._check_key(k, lam)
        ordered = hl._canonical_order(items)
    except ValueError:
        # a repeated key before the failing record, or anywhere when every
        # record is well formed, is what is reported
        _raise_first_repeat(items)
        raise
    nonzero = [item for item in ordered if item[1][0] or item[1][2]]
    return hl._reduced(*hl._integer_form(nonzero))


def _digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _load_json(path):
    """The JSON value in the file ``path`` and the digest of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), _digest_bytes(raw)
