import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import (
    array_object,
    assert_canonical,
    exppoly_to_json,
    largest_primes_below,
    pairs,
)
from skewext import formats as fmt
from skewext import halfline as hl
from skewext import relation as rel
from skewext import subspace as sub
from skewext.errors import InvalidTerm


def test_relation_roundtrip():
    for k in (2, 0):
        t = rel.random_skew_symmetric(3, k, seed=4)
        back = fmt.relation_from_json(json.loads(fmt.dumps(fmt.relation_to_json(t))))
        assert back.space_dim == 3 and back.graph_dim == k
        assert sub.distance_at_most(back.graph, t.graph, 1e-12)


def test_relation_from_json_normalizes_generators():
    obj = {
        "n": 1,
        "graph_generators": [
            [[2.0, 0.0], [0.0, 2.0]],
            [[4.0, 0.0], [0.0, 4.0]],  # dependent generator is absorbed
        ],
    }
    t = fmt.relation_from_json(obj)
    assert t.graph_dim == 1
    assert sub.distance_at_most(
        t.graph, sub.span_matrix(np.column_stack([(1, 1j)])), sub.ORTH_TOL
    )


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"n": 0, "graph_generators": []},
        {"n": 1},
        {"n": 1, "graph_generators": [[[1.0, 0.0]]]},  # wrong vector length
        {"n": 1, "graph_generators": [[[1.0, "x"], [0.0, 0.0]]]},
        {"n": 1, "graph_generators": [[[float("inf"), 0.0], [0.0, 1.0]]]},
        {"n": 1, "graph_generators": [[[float("nan"), 0.0], [0.0, 1.0]]]},
        {"n": 1, "graph_generators": [[[10**400, 0.0], [0.0, 1.0]]]},
        {"n": 1, "graph_generators": [[[True, 0.0], [0.0, 1.0]]]},
        {"n": True, "graph_generators": [[[1.0, 0.0], [0.0, 1.0]]]},
        # ragged generators with 24 = 3 * 2n pairs in all
        {"n": 4, "graph_generators": [[[1.0, 0.0]] * size for size in (1, 15, 8)]},
        {"n": 1, "graph_generators": [[[None, 0.0], [0.0, 1.0]]]},
        # array objects of the wrong width, with and without rows
        {"n": 1, "graph_generators": array_object([[1.0]])},
        {"n": 1, "graph_generators": array_object(np.zeros((0, 3)))},
        {"n": 1, "graph_generators": "AAAA"},
    ],
)
def test_relation_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        fmt.relation_from_json(obj)


def test_matrix_roundtrip():
    m = np.array([[1 + 2j, 0], [3.5j, -1]])
    for form in (fmt.matrix_to_json(m), pairs(m)):
        assert np.array_equal(fmt.matrix_from_json(json.loads(fmt.dumps(form))), m)


def test_matrix_and_subspace_encoding_match_entrywise_encoder():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    m[0, 0] = complex(-0.0, -0.0)
    for a in (m, m.real, m.T, np.zeros((2, 0)), np.zeros((0, 3))):
        assert json.loads(fmt.dumps(fmt.matrix_to_json(a))) == array_object(a)
    s = sub.span_matrix(np.column_stack([(1, 1j, 0), (0, 2, 1)]))
    cols = [s.basis[:, j] for j in range(s.dim)]
    assert json.loads(fmt.dumps(fmt.subspace_to_json(s))) == array_object(cols)
    assert fmt.subspace_to_json(sub.zero(3)).shape == (0, 3)


def plain(x):
    """``x`` with every array replaced by its array object, built entry by
    entry."""
    if isinstance(x, np.ndarray):
        return array_object(x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


def test_dumps_matches_json():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = complex(-0.0, 0.0)
    # where ``repr`` switches to exponent form, and the extreme doubles
    m[0, 1] = complex(np.nextafter(1e-4, 0), 1e-4)
    m[0, 2] = complex(np.nextafter(1e16, 0), -1e16)
    m[1, 0] = complex(5e-324, -1.7976931348623157e308)
    nonfinite = m.copy()
    nonfinite[1, 1] = complex(0.5, math.nan)
    nonfinite[2, 0] = complex(math.inf, 0.0)
    nonfinite[0, 3] = complex(1.0, -math.inf)
    s = sub.span_matrix(np.column_stack([(1, 1j, 0), (0, 2, 1)]))
    obj = {
        "matrix": m,
        "nonfinite": nonfinite,
        "scalars": [-0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324, 10**300, 0],
        "flags": [True, False, None],
        "empty": [fmt.matrix_to_json(np.zeros(shape)) for shape in ((0, 3), (3, 0))],
        "subspaces": [fmt.subspace_to_json(sub.zero(3)), fmt.subspace_to_json(s)],
        "deep": {"a": [{"b": [[m, {"c": nonfinite}]]}]},
        "strings": ["plain", "h\u00e9llo \u2200x", "tab\tnl\n\x00\x1f\"q\"\\"],
        "\u00fcber": {},
        "none": [],
        "pair": (1, 2.5),
    }
    for x in (obj, m, fmt.matrix_to_json(np.zeros((0, 0))), "top", 3, None, {}, []):
        assert fmt.dumps(x) == json.dumps(plain(x), sort_keys=True, indent=2) + "\n"
    # only complex128 matrices: no real array (no report holds one), not the
    # (rows, cols, 2) pair layout of schema 2, no other precision or rank
    bad = [
        np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2), np.complex64),
        np.zeros(3, complex), np.zeros((1, 2, 2), complex), {1, 2},
    ]
    for value in bad:
        with pytest.raises(TypeError):
            fmt.dumps({"x": [value]})


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, np.finfo(float).smallest_normal, 1e-05,
    np.nextafter(1e-4, 0), 1e16, -1e16, 1.7976931348623157e308, math.nan,
    math.inf, -math.inf,
]
doubles = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGES),
)
pair_shapes = st.tuples(st.integers(0, 40), st.integers(0, 40), st.just(2))
VIEWS = {
    "whole": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[::2, ::-3],
}


def nested(a, path):
    """``a`` inside the containers of ``path``, innermost last, each with a
    sibling, so that the array sits at nesting depth ``len(path)``."""
    for kind in reversed(path):
        a = [a, 0] if kind == "list" else {"m": a, "z": None}
    return a


def unnested(x, path):
    """The value ``nested`` put inside the containers of ``path``."""
    for kind in path:
        x = x[0] if kind == "list" else x["m"]
    return x


def bits(a) -> bytes:
    return np.ascontiguousarray(a, "<c16").tobytes()


@settings(deadline=None, max_examples=200)
@given(
    pair_array=arrays(np.float64, pair_shapes, elements=doubles),
    view=st.sampled_from(sorted(VIEWS)),
    path=st.lists(st.sampled_from(["list", "dict"]), max_size=5),
)
@example(pair_array=np.full((40, 40, 2), -1e-5), view="transposed", path=["dict"] * 5)
@example(pair_array=np.full((40, 40, 2), math.nan), view="strided", path=["list"] * 5)
def test_every_array_round_trips_bit_for_bit(pair_array, view, path):
    # NaN and the infinities too: the array object holds the bytes, and the
    # finite-entry rule is the input reader's, not the decoder's
    a = VIEWS[view](pair_array.view(complex)[..., 0])
    x = nested(a, path)
    text = fmt.dumps(x)
    assert text == json.dumps(plain(x), sort_keys=True, indent=2) + "\n"
    back = fmt._array_from_json(unnested(json.loads(text), path))
    assert back.shape == a.shape and bits(back) == bits(a)
    if np.isfinite(a).all():
        assert bits(fmt.matrix_from_json(unnested(json.loads(text), path))) == bits(a)


#: arrays of 0.0, -0.0 and 1.0 entries, such as F = [0 | I], and one of
#: each edge value alone
NAMED = {
    **{f"F k={k}": np.eye(k, 5, 5 - k) for k in (0, 1, 5)},
    "permutation": np.eye(4)[[2, 0, 3, 1]],
    "negative zeros": np.full((2, 3), complex(-0.0, -0.0)),
    **{f"edge {x!r}": np.array([[complex(x, -x)]]) for x in EDGES},
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_arrays_round_trip_bit_for_bit(name):
    a = fmt.matrix_to_json(NAMED[name])
    obj = json.loads(fmt.dumps(a))
    assert obj == array_object(a)
    assert bits(fmt._array_from_json(obj)) == bits(NAMED[name])


def test_extension_param_roundtrip_and_validation():
    # the kind and the matrix come back unchecked: the command compares the
    # kind with its mode, and the constructor checks the matrix
    for kind in ("unitary_B", "nope", None):
        obj = {"kind": kind, "matrix": [[[2.0, 1.0]]]}
        got, matrix = fmt.extension_param_from_json(obj)
        assert got == kind
        assert matrix.dtype == complex and matrix.tolist() == [[2 + 1j]]
    with pytest.raises(ValueError):
        fmt.extension_param_from_json([{"kind": "unitary_B"}])
    with pytest.raises(ValueError):
        fmt.extension_param_from_json({"kind": "unitary_B", "matrix": [[1.0]]})


def test_exppoly_roundtrip():
    f = hl.term(2, Fraction(5, 3), Fraction(-7, 2), Fraction(1, 3)) + hl.exp_decay(1)
    assert fmt.exppoly_from_json(exppoly_to_json(f)) == f


def test_exppoly_rejects_malformed():
    with pytest.raises(ValueError):
        fmt.exppoly_from_json([{"k": "zero", "lambda": "1", "re": "1", "im": "0"}])
    with pytest.raises(ValueError):
        fmt.exppoly_from_json([{"k": 0, "lambda": "1/0", "re": "1", "im": "0"}])
    with pytest.raises(ValueError):
        fmt.exppoly_from_json([{"k": True, "lambda": "1", "re": "1", "im": "0"}])
    with pytest.raises(ValueError):
        fmt.exppoly_from_json([{"k": 0, "lambda": "1", "re": True, "im": "0"}])
    with pytest.raises(ValueError):
        fmt.exppoly_from_json(
            [
                {"k": 0, "lambda": "1", "re": "1", "im": "0"},
                {"k": 0, "lambda": "1", "re": "2", "im": "0"},
            ]
        )


#: plain digit strings past the int-to-str limit, which Fraction(s) refuses
BEYOND_LIMIT = {"1" * 5000 + "/3": Fraction((10**5000 - 1) // 9, 3)}


@pytest.mark.parametrize(
    "s",
    [
        "0123", "-0", "+3", " 3", "3/", "1/0", "0/00", "3/-2", "1_000", "1.5",
        "1e3", "\u0663", "-", "", "7", "-6/4", "00/0001", "1/00", "3 /4", "\u00bd",
        pytest.param("1" * 5000 + "/3", id="5000-digit numerator"),
    ],
)
def test_fraction_from_str_agrees_with_fraction(s):
    # plain ASCII p/q is read by int(), in halves past the int-to-str limit;
    # the result and the accept/reject outcome, with its message, must be
    # those of Fraction(s), which cannot read past the limit
    try:
        expected = BEYOND_LIMIT[s] if s in BEYOND_LIMIT else Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError) as info:
            Fraction(*hl._ratio_from_str(s))
        assert str(info.value) == f"bad rational {s!r}: {exc}"
    else:
        got = Fraction(*hl._ratio_from_str(s))
        assert type(got) is Fraction and got == expected


@pytest.mark.parametrize(
    "n",
    [0, 7, -7, 2**1992 - 1, 2**1992, 10**600 - 1, 10**600, -(10**600) - 1,
     10**1200 + 5, -(7**5000)],
)
def test_fraction_digits_are_those_of_str(n):
    # written in blocks once n has 600 digits; every case here is within
    # the default int-to-str limit, so str() is the reference
    assert hl._int_digits(n) == str(n)
    for den in (1, 3, 10**601 + 1):
        assert hl._fraction_digits(n * 2, den * 2) == str(Fraction(n, den))
        assert fmt.fraction_to_str(Fraction(n, den)) == str(Fraction(n, den))


@pytest.mark.parametrize(
    "n",
    [10**599, -(10**599), 10**600 - 1, -(7**5000), 10**6609 + 3, 1 - 10**20000],
    ids=["1e599", "-1e599", "1e600-1", "-7^5000", "1e6609+3", "1-1e20000"],
)
def test_digits_written_past_the_str_limit_are_read_back(n):
    # the reader splits a long digit string in halves, as the writer does
    assert hl._digits_int(hl._int_digits(n)) == n
    assert hl._digits_int("00" + hl._int_digits(abs(n))) == abs(n)
    assert Fraction(*hl._ratio_from_str(hl._fraction_digits(n, 7))) == Fraction(n, 7)


def test_exppoly_from_json_orders_rates_beyond_double_range():
    big = 10**400
    rates = [Fraction(big), Fraction(1, 2), Fraction(big - 1), Fraction(big + 1, 7)]
    records = [
        {"k": k, "lambda": str(lam), "re": "1", "im": str(k)}
        for lam in rates
        for k in (1, 0)
    ]
    f = fmt.exppoly_from_json(records)
    assert list(f.terms) == [(k, lam) for lam in sorted(rates) for k in (0, 1)]
    assert exppoly_to_json(f) == sorted(
        records, key=lambda r: (Fraction(r["lambda"]), r["k"])
    )


def test_unitary_matrix_from_json_accepts_both_shapes():
    raw = [[[1.0, 0.0]]]
    assert np.array_equal(fmt.unitary_matrix_from_json(raw), np.eye(1))
    for matrix in (raw, array_object(np.eye(1))):
        wrapped = fmt.unitary_matrix_from_json({"matrix": matrix})
        assert np.array_equal(wrapped, np.eye(1))


def test_exppoly_from_json_rejects_a_repeated_key_with_zero_coefficient():
    # the repeat is found among all records, before zero coefficients drop,
    # and ``ExpPoly`` on the same terms raises the same error
    message = "duplicate term key (0, Fraction(1, 1))"
    for first, second in (("0", "2"), ("2", "0"), ("0", "0")):
        records = [
            {"k": 0, "lambda": "1", "re": first, "im": "0"},
            {"k": 0, "lambda": "2/2", "re": second, "im": "0"},
        ]
        with pytest.raises(InvalidTerm) as decoded:
            fmt.exppoly_from_json(records)
        with pytest.raises(InvalidTerm) as built:
            hl.ExpPoly({(0, 1): int(first), (0, "2/2"): int(second)})
        assert str(decoded.value) == str(built.value) == message


def _two_pass_decode(obj):
    """The decoder as two passes: records into a dict keyed (k, lam), with a
    repeated key refused on sight, then ``ExpPoly(dict)`` checks every key."""
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
            raise InvalidTerm(f"degree {k} exceeds the cap {hl.MAX_DEGREE}")
        lam = Fraction(*hl._ratio_from_str(record.get("lambda")))
        coeff = hl.RationalComplex(
            Fraction(*hl._ratio_from_str(record.get("re", "0"))),
            Fraction(*hl._ratio_from_str(record.get("im", "0"))),
        )
        if (k, lam) in terms:
            raise InvalidTerm(f"duplicate term key {(k, lam)}")
        terms[(k, lam)] = coeff
    return hl.ExpPoly(terms)


#: the trusted constructor itself, bound before the test suite's fixture
#: wraps it in a check that rebuilds each function from ``Fraction`` terms
_TRUSTED_FROM_INTEGERS = vars(hl.ExpPoly)["_from_integers"]


def test_exppoly_from_json_builds_no_fraction_on_plain_records(monkeypatch):
    # integers and plain "p/q" strings, rates unreduced and repeated across
    # degrees, are read and reduced in integers
    records = [
        {"k": 2, "lambda": "6/4", "re": "1/3", "im": "-2"},
        {"k": 0, "lambda": 5, "re": 7},
        {"k": 1, "lambda": "3/2", "re": "-4/10", "im": 3},
        {"k": 3, "lambda": "10/2", "re": "0", "im": "0"},
    ]
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(hl.ExpPoly, "_from_integers", _TRUSTED_FROM_INTEGERS)
        patch.setattr(Fraction, "__new__", counting)
        f = fmt.exppoly_from_json(records)
    assert calls == []
    assert_canonical(*f.integer_form())
    assert f == _two_pass_decode(records[:3])


def _term(k, lam, re="1"):
    return {"k": k, "lambda": lam, "re": re, "im": "0"}


@pytest.mark.parametrize(
    "records",
    [
        [_term(0, "1"), _term(0, "1", "2"), _term("x", "1")],
        [_term("x", "1"), _term(0, "1"), _term(0, "1")],
        [_term(-1, "1"), _term(0, "2"), _term(0, "2")],
        [_term(-1, "1"), _term(-1, "1")],
        [_term(0, "-1"), _term(0, "-1")],
        [_term(0, "3"), _term(1, "2"), _term(1, "2"), _term(0, "3")],
        [_term(0, "-1"), _term(-2, "1")],
        [_term(0, "1/1000001", "0"), _term(0, "1")],
        [_term(1, "1/0"), _term(1, "1/2"), _term(1, "2/4")],
        [_term(0, "1"), _term(34, "1"), _term(0, "1")],
        [_term(0, "1"), 5, _term(0, "1")],
        [_term(0, "1"), _term(1, "1"), _term(-1, "1"), _term(1, "1")],
        [_term(2, "1/2", "0"), _term(2, "0")],
        [_term(0, "7/3"), _term(1, "5", "-3/4"), _term(0, "1", "0")],
        [_term(1, "1/2"), _term(1, "2/4"), _term(1, "0.5"), _term(1, " 1/2")],
        [_term(1, "0.5", "0"), _term(0, "1/2"), _term(1, " 1/2")],
        [_term(0, "2000000/2000000"), _term(1, "3/2000000", "0"), _term(1, "1")],
    ],
)
def test_exppoly_from_json_raises_as_the_two_pass_decoder(records):
    # the same accepted function, or the same error type and message
    try:
        expected = _two_pass_decode(records)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            fmt.exppoly_from_json(records)
        assert str(info.value) == str(exc)
    else:
        assert fmt.exppoly_from_json(records) == expected


@pytest.mark.parametrize(
    "f",
    [
        hl.ExpPoly(),
        hl.term(0, 1, 3, -4),
        hl.term(2, Fraction(5, 3), Fraction(-7, 2), Fraction(1, 3))
        + hl.exp_decay(Fraction(1, 2))
        + hl.term(1, 2**70 + 1, -(2**65) - 3, Fraction(2**80, 3)),
        hl.term(32, Fraction(10**6 - 1, 10**6), 0, Fraction(-1, 2**64 + 1)),
    ],
    ids=["zero", "integers", "rationals", "cap-rate"],
)
def test_dumps_writes_exppolys_as_json_writes_their_records(f):
    # the function at nesting levels 0 to 3, beside other values
    plain = exppoly_to_json(f)
    for obj, expected in [
        (f, plain),
        ([f, 1], [plain, 1]),
        ({"a": f, "b": [f]}, {"a": plain, "b": [plain]}),
        ({"x": [{"y": f}, f]}, {"x": [{"y": plain}, plain]}),
        ({"x": [{"y": [f, hl.ExpPoly()]}]}, {"x": [{"y": [plain, []]}]}),
    ]:
        assert fmt.dumps(obj) == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_coprime_rate_resolvent_is_written_as_json_writes_its_records():
    # the resolvent of 60 terms (1 + i i) t^(32 - i % 2) exp(-lam t) at rates
    # lam = (p + 1 + i)/p, p the 60 largest primes below 10^6: about 2000
    # coefficients over one common denominator of about 2600 bits
    f = hl.ExpPoly(
        {
            (32 - i % 2, Fraction(p + 1 + i, p)): hl.RationalComplex(1, i)
            for i, p in enumerate(largest_primes_below(10**6, 60))
        }
    )
    u = hl.resolvent_solve(f)
    assert u.integer_form()[0].bit_length() > 2000
    payload = {"solution": u, "resolvent_identity_exact": True, "trace_zero": True}
    expected = {**payload, "solution": exppoly_to_json(u)}
    assert fmt.dumps(payload) == json.dumps(expected, sort_keys=True, indent=2) + "\n"
