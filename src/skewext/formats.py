"""JSON wire formats shared by the CLI and file-based workflows.

Complex numbers in the numeric substrate are [re, im] pairs of doubles;
exact half-line values are "p/q" strings.  Encoders keep a complex matrix
as a float64 array of shape (rows, cols, 2) of its pairs, and half-line
functions stay ``ExpPoly`` objects until ``dumps`` writes them, each as
the list of its term records {"k", "lambda", "re", "im"} by one
%-template, the "p/q" digits written by ``_fraction_digits`` from the
function's integer form (D, ((p, q, ((k, D re c, D im c), ...)), ...)),
with no ``Fraction`` built.  Digits are written in blocks
(``halfline._int_digits``, which writes the exact values in
``halfline``'s messages too), so a value longer than CPython's int-to-str
limit is written, and read back in halves (``_digits_int``), without
changing that process-wide limit.  The decoder ``exppoly_from_json``
builds that form from the integers ``_ratio_from_str`` reads, rates
included.  ``dumps`` writes a report holding such values with the bytes of
``json.dumps(..., sort_keys=True, indent=2)``.  A finite array is written,
layout and digits, by one indented ``orjson`` call at its nesting depth;
``repr`` writes only the entries whose magnitude puts ``repr`` in exponent
form.  Both write the shortest digits that round-trip and the same
indented layout, and differ only in how they write an exponent, so the
bytes are ``json``'s.  ``matrix_from_json`` is the one decoder of
complex data.  Decoders raise ValueError on malformed input so the CLI can
map it to the invalid-input exit code.

numpy, ``orjson`` and the relation and extension modules are imported by
the functions that use them, on their first call: the half-line codecs,
and ``dumps`` of a report without arrays, load none of them.  The input
file readers and ``_digest_bytes`` live here too, so the CLI and the
relation commands share them without importing one another:
``_load_numeric_json`` reads the relation commands' files with ``orjson``,
``_load_json`` the half-line command's with ``json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import halfline as hl
from .halfline import _fraction_digits, _int_digits
from .tolerances import RANK_TOL

if TYPE_CHECKING:
    import numpy as np

    from .boundary import BoundarySystem, BoundaryTriplet
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
    """A finite (rows, cols, 2) float64 array as nested lists at nesting
    ``level``: one indented ``orjson`` call, with ``repr`` at the
    exponent-form magnitudes (see ``dumps``)."""
    # imported here, so that a report without arrays (sweep, halfline) does
    # not pay orjson's import (datetime, uuid, zoneinfo)
    import numpy as np
    import orjson

    # orjson writes only C-contiguous arrays
    a = np.ascontiguousarray(a)
    mag = np.abs(a)
    exponent = ((mag > 0) & (mag < 1e-4)) | (mag >= 1e16)
    special = a[exponent].tolist()
    # each exponent-form entry becomes NaN, which orjson writes as null; the
    # array is finite, so every null in the text is one of them
    body = np.where(exponent, np.nan, a) if special else a
    # nested in ``level`` one-element lists, the array is indented as it sits
    # in the report; the wrappers' lines are then sliced off
    for _ in range(level):
        body = [body]
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2
    text = orjson.dumps(body, option=option).decode()
    text = text[level * (level + 3) : len(text) - level * (level + 1)]
    if not special:
        return text
    # "n" occurs in the text only as the first letter of a null, and a
    # one-letter search runs at memchr speed, unlike a split on "null"
    pieces = []
    start = 0
    for x in special:
        end = text.index("n", start)
        pieces += (text[start:end], float.__repr__(x))
        start = end + 4
    pieces.append(text[start:])
    return "".join(pieces)


def _exppoly_to_json(f: hl.ExpPoly, level: int) -> str:
    """A function as its list of term records at nesting ``level``: each
    record's keys in sorted order ("im", "k", "lambda", "re"), the rationals
    as "p/q" strings written from its integer form (``_fraction_digits``),
    filled into one indented %-template."""
    den, groups = f.integer_form()
    if not groups:
        return "[]"
    values = []
    for p, q, terms in groups:
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
    on large reports.  Here a finite array is written by one
    ``orjson.dumps`` with ``OPT_INDENT_2``, nested in as many one-element
    lists as the array's nesting depth so that its lines carry the report's
    indentation, the wrappers' lines then sliced off.  ``orjson`` writes the
    layout of the indented ``json.dumps``, empty shapes included, and the
    shortest round-trip digits; it differs only at 0 < |x| < 1e-4 and
    |x| >= 1e16, where ``repr`` uses exponent form (``1e-05``, ``1e+16``)
    and ``orjson`` does not (``0.00001``, ``1e16``).  Those entries are
    NaN in the copy ``orjson`` writes, so they come out as ``null``, and
    their ``repr`` is put in place of each ``null``.  An array holding
    NaN or an infinity goes through ``tolist()`` and the scalar path.
    Pieces are collected in one list and joined once, so no container's
    text is copied into its parent's.
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
    pass over the entries and the values converted by one ``np.fromiter``
    over them.
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
        values = np.fromiter(
            chain.from_iterable(pairs), dtype=float, count=2 * len(pairs)
        ).reshape(shape)
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


def extension_param_from_json(obj) -> tuple:
    """The (kind, matrix) of a parameter file.  The kind is checked by the
    command against its mode, and the matrix by the constructor using it."""
    if not isinstance(obj, dict):
        raise ValueError("parameter file must hold a JSON object")
    return obj.get("kind"), matrix_from_json(obj.get("matrix"))


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
    return _fraction_digits(*x.as_integer_ratio())


#: a string of fewer characters is within CPython's int-to-str digit limit
#: at any setting (the lowest allowed is 640 digits), so ``int`` reads it
_SHORT_DIGITS = 600


def _digits_int(s: str) -> int:
    """The integer of the ASCII digits ``s``, with an optional leading "-",
    as ``int(s)`` reads it, also beyond ``sys.get_int_max_str_digits()``:
    the mirror of ``_int_digits``, a long string is split at half its length
    and each part read the same way."""
    if len(s) < _SHORT_DIGITS:
        return int(s)
    if s[0] == "-":
        return -_digits_int(s[1:])
    low = len(s) // 2
    return _digits_int(s[:-low]) * 10**low + _digits_int(s[-low:])


def _ratio_from_str(s) -> tuple:
    """A rational from a JSON integer or a string ``Fraction`` accepts, as
    ``(numerator, denominator)`` with a positive denominator, not reduced.

    The plain ASCII forms ``-?digits`` and ``-?digits/digits`` with a
    nonzero denominator are read by ``int``, and past the int-to-str limit,
    where ``Fraction(s)`` refuses them, by ``_digits_int``, so the digits
    ``formats`` writes are read back.  Every other string (signs, spaces,
    underscores, decimals, exponents, non-ASCII digits, a zero denominator)
    goes to ``Fraction(s)``, whose regex parse costs more; it keeps that
    outcome and message.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    if not isinstance(s, str):
        raise ValueError(f'expected a "p/q" string, got {s!r}')
    try:
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if s.isascii() and digits.isdigit():
            read = int if len(s) < _SHORT_DIGITS else _digits_int
            if not slash:
                return read(num), 1
            if den.isdigit() and den.strip("0"):
                return read(num), read(den)
        return Fraction(s).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}: {exc}") from None


def rational_complex_to_json(z: hl.RationalComplex) -> dict:
    return {"re": fraction_to_str(z.re), "im": fraction_to_str(z.im)}


def _raise_first_repeat(items):
    """Raise ValueError naming the first key of ``items`` that repeats an
    earlier one, in input order; return if none does."""
    seen = set()
    for key, _ in items:
        if key in seen:
            k, num, den = map(_int_digits, key)
            raise ValueError(f"duplicate term for ({k}, Fraction({num}, {den}))")
        seen.add(key)


def exppoly_from_json(obj) -> hl.ExpPoly:
    """A function from a list of term records {"k", "lambda", "re", "im"}.

    Each term is checked once: its record shape, degree type and degree cap
    and its three rationals (``_ratio_from_str``) here, then its degree
    sign, rate sign and rate denominator cap (``halfline._check_key``), and
    the keys (k, p, q) of all terms, zero coefficients included, are ordered
    and compared for repeats by their exact integer ranks
    (``halfline._canonical_order``).  Rates are reduced by one gcd, so each
    rate is one key however spelled and the cap applies to its reduced
    denominator; coefficients stay integer pairs, brought to the lcm of
    their denominators and reduced by one gcd into the integer form, with no
    dict, ``Fraction`` or ``RationalComplex``.  Errors keep their order: the
    first malformed record or repeated key in input order, then the first
    bad key.
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
            p, q = _ratio_from_str(record.get("lambda"))
            h = math.gcd(p, q)
            re = _ratio_from_str(record.get("re", "0"))
            im = _ratio_from_str(record.get("im", "0"))
            items.append(((k, p // h, q // h), re + im))
        for key, _ in items:
            hl._check_key(*key)
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
    """The JSON value in the file ``path``, read by ``json``, and the digest
    of its bytes: the reader of the half-line command, which loads no
    ``orjson``.  ``json`` parses nesting by recursion, so nesting beyond the
    interpreter's recursion limit is refused as a ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except RecursionError:
        raise ValueError("arrays and objects nest too deep") from None
    return obj, _digest_bytes(raw)


#: the deepest nesting of arrays and objects ``_load_numeric_json`` reads:
#: ``orjson`` parses nesting on the C stack, and about 150,000 levels
#: overflow an 8 MB stack (a segfault); the files it reads nest 4 deep
_MAX_NESTING = 10_000
#: a JSON string, escapes included; compiled on first use, not at import
_JSON_STRING = rb'"(?:[^"\\]|\\.)*"'
_BRACKET_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _nesting_depth(raw: bytes) -> int:
    """The deepest nesting of arrays and objects in the JSON text ``raw``:
    its brackets outside strings, counted."""
    not_brackets = bytes(set(range(256)) - set(_BRACKET_STEP))
    brackets = re.sub(_JSON_STRING, b"", raw).translate(None, not_brackets)
    return max(accumulate(map(_BRACKET_STEP.__getitem__, brackets)), default=0)


def _load_numeric_json(path):
    """The JSON value in the file ``path``, read by ``orjson``, and the digest
    of its bytes: the reader of the relation commands' relation, parameter
    and ``--l0`` files.

    Unlike ``json`` it refuses ``NaN``, ``Infinity``, numbers beyond double
    range (``1e400``, a 400-digit integer), a byte order mark, invalid UTF-8
    and lone surrogates at parse time, and reads an integer beyond 64 bits as
    a double; each refusal is a ValueError, as is nesting deeper than
    ``_MAX_NESTING``.  A file with fewer opening brackets than that cannot
    nest deeper, so only larger files have their depth counted.
    """
    import orjson

    with open(path, "rb") as fh:
        raw = fh.read()
    opening = raw.count(b"[") + raw.count(b"{")
    if opening > _MAX_NESTING and _nesting_depth(raw) > _MAX_NESTING:
        raise ValueError(f"arrays and objects nest more than {_MAX_NESTING} deep")
    return orjson.loads(raw), _digest_bytes(raw)
