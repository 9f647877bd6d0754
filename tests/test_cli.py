import base64
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reference import array_object, pairs, resolvent_termwise
from skewext import boundary as bd
from skewext import extensions as ext
from skewext import formats as fmt
from skewext import halfline as hl
from skewext import relation as rel
from skewext.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report


@pytest.fixture
def zero_relation_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 1, "graph_generators": []}))
    return str(path)


@pytest.fixture
def mult_one_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"n": 1, "graph_generators": [[[1.0, 0.0], [1.0, 0.0]]]})
    )
    return str(path)


def test_analyze_zero_relation(capsys, zero_relation_file):
    code, report = run_cli(capsys, "analyze", "--input", zero_relation_file)
    assert code == 0
    assert report["status"] == "pass"
    assert report["payload"]["indices"] == [1, 1]
    assert report["payload"]["all_agree"] is True


def test_analyze_not_skew_symmetric(capsys, mult_one_file):
    code, report = run_cli(capsys, "analyze", "--input", mult_one_file)
    assert code == 2
    assert report["status"] == "error"
    assert report["payload"]["skew_symmetric"] is False


def test_analyze_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2


def test_analyze_missing_file(capsys):
    assert main(["analyze", "--input", "/nonexistent/rel.json"]) == 2


def test_generate_then_analyze_roundtrip(tmp_path, capsys):
    rel_path = str(tmp_path / "rel.json")
    code, _ = run_cli(
        capsys,
        "generate",
        "--n", "4",
        "--k", "2",
        "--seed", "11",
        "--out-relation", rel_path,
    )
    assert code == 0
    code, report = run_cli(capsys, "analyze", "--input", rel_path)
    assert code == 0
    assert report["payload"]["indices"] == [2, 2]


def test_generate_is_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (p1, p2):
        run_cli(
            capsys,
            "generate",
            "--n", "3",
            "--k", "1",
            "--seed", "7",
            "--out-relation", path,
        )
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_report_bytes_deterministic(capsys, zero_relation_file):
    outputs = []
    for _ in range(2):
        main(["canonical", "--input", zero_relation_file])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_canonical_report(capsys, zero_relation_file):
    code, report = run_cli(capsys, "canonical", "--input", zero_relation_file)
    assert code == 0
    assert all(report["payload"]["checks"].values())
    assert report["payload"]["system_residual"] <= 1e-9


def test_a_failed_library_check_on_valid_input_is_named_not_invalid_input(
    tmp_path, capsys, monkeypatch
):
    # NotOrthonormal is also a ValueError (tests/test_errors.py), but here the
    # input is valid: the orthonormality check of the library's own bases
    # is made to fail, so the message names the library error
    from skewext import subspace as sub

    path = tmp_path / "rel.json"
    path.write_text(fmt.dumps(fmt.relation_to_json(rel.random_skew_symmetric(3, 1, 1))))
    assert main(["canonical", "--input", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sub, "ORTH_TOL", -1.0)
    code = main(["canonical", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: NotOrthonormal: basis columns are not orthonormal\n"


def test_extend_mode_A(tmp_path, capsys, zero_relation_file):
    param = tmp_path / "param.json"
    param.write_text(json.dumps({"kind": "unitary_A", "matrix": [[[0.0, 1.0]]]}))
    code, report = run_cli(
        capsys,
        "extend",
        "--input", zero_relation_file,
        "--param", str(param),
        "--mode", "A",
    )
    assert code == 0
    # L = [i] selects mult by -i: graph generated by (1, -i)
    x, xp = fmt.matrix_from_json(report["payload"]["extension"]["graph_generators"])[0]
    assert abs(xp / x + 1j) <= 1e-9


def test_extend_mode_B_and_phi(tmp_path, capsys, zero_relation_file):
    param_b = tmp_path / "pb.json"
    param_b.write_text(json.dumps({"kind": "unitary_B", "matrix": [[[0.0, 1.0]]]}))
    code, report = run_cli(
        capsys,
        "extend",
        "--input", zero_relation_file,
        "--param", str(param_b),
        "--mode", "B",
    )
    assert code == 0 and all(report["payload"]["checks"].values())

    param_k = tmp_path / "pk.json"
    param_k.write_text(json.dumps({"kind": "contraction", "matrix": [[[0.5, 0.0]]]}))
    code, report = run_cli(
        capsys,
        "extend",
        "--input", zero_relation_file,
        "--param", str(param_k),
        "--mode", "phi",
    )
    assert code == 0 and all(report["payload"]["checks"].values())


def test_extend_wrong_param_kind(tmp_path, capsys, zero_relation_file):
    param = tmp_path / "param.json"
    param.write_text(json.dumps({"kind": "contraction", "matrix": [[[0.5, 0.0]]]}))
    code, _ = run_cli(
        capsys,
        "extend",
        "--input", zero_relation_file,
        "--param", str(param),
        "--mode", "A",
    )
    assert code == 2


@pytest.mark.parametrize(
    "mode, kind, entry, err",
    [
        ("A", "bogus", [1.0, 0.0], "error: invalid input: mode A needs a 'unitary_A'"),
        ("A", "unitary_A", [2.0, 0.0], "error: NotUnitary: "),
        ("B", "unitary_B", [0.5, 0.0], "error: NotUnitary: "),
        ("phi", "contraction", [2.0, 0.0], "error: NotContraction: "),
    ],
)
def test_extend_rejects_a_bad_param(
    mode, kind, entry, err, tmp_path, capsys, zero_relation_file
):
    param = tmp_path / "param.json"
    param.write_text(json.dumps({"kind": kind, "matrix": [[entry]]}))
    code = main(
        ["extend", "--input", zero_relation_file, "--param", str(param), "--mode", mode]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(err)


# a relation command's input files, each with one matrix entry X, and the
# command reading it; the valid entry of each file is 1.0 or 0.5
INPUT_FILES = {
    "relation": (
        b'{"n": 1, "graph_generators": [[[X, 0.0], [0.0, 1.0]]]}',
        ["canonical", "--input", "{file}"],
    ),
    "param": (
        b'{"kind": "contraction", "matrix": [[[X, 0.0]]]}',
        ["extend", "--input", "{zero}", "--mode", "phi", "--param", "{file}"],
    ),
    "l0": (
        b'{"matrix": [[[X, 0.0]]]}',
        ["convert", "--input", "{zero}", "--direction", "s2t", "--l0", "{file}"],
    ),
}
VALID_ENTRY = {"relation": b"1.0", "param": b"0.5", "l0": b"1.0"}
INPUT_DEFECTS = {
    "nan": lambda text, entry: text.replace(b"X", b"NaN"),
    "infinity": lambda text, entry: text.replace(b"X", b"Infinity"),
    "beyond double range": lambda text, entry: text.replace(b"X", b"1e400"),
    "400-digit integer": lambda text, entry: text.replace(b"X", b"7" * 400),
    "byte order mark": lambda text, entry: b"\xef\xbb\xbf" + text.replace(b"X", entry),
    "invalid utf-8": lambda text, entry: (
        text.replace(b"X", entry)[:-1] + b', "note": "\xff"}'
    ),
}


def _run_on_input(role, text, tmp_path, zero_relation_file):
    path = tmp_path / f"{role}.json"
    path.write_bytes(text)
    argv = INPUT_FILES[role][1]
    return main([a.format(file=path, zero=zero_relation_file) for a in argv])


@pytest.mark.parametrize("defect", sorted(INPUT_DEFECTS))
@pytest.mark.parametrize("role", sorted(INPUT_FILES))
def test_relation_commands_refuse_what_orjson_cannot_read(
    role, defect, tmp_path, capsys, zero_relation_file
):
    template, entry = INPUT_FILES[role][0], VALID_ENTRY[role]
    # the file is read without the defect
    valid = template.replace(b"X", entry)
    assert _run_on_input(role, valid, tmp_path, zero_relation_file) == 0
    capsys.readouterr()
    text = INPUT_DEFECTS[defect](template, entry)
    code = _run_on_input(role, text, tmp_path, zero_relation_file)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid input: ")


@pytest.mark.parametrize("role", sorted(INPUT_FILES))
def test_relation_commands_refuse_nesting_that_would_overflow_the_parser(
    role, tmp_path, zero_relation_file
):
    # 300,000 levels overflow orjson's C stack; the run is a child process,
    # so that a crash fails this test alone
    depth = 300_000
    text = INPUT_FILES[role][0].replace(b"X", b"[" * depth + b"1" + b"]" * depth)
    path = tmp_path / f"{role}.json"
    path.write_bytes(text)
    argv = [a.format(file=path, zero=zero_relation_file) for a in INPUT_FILES[role][1]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "skewext.cli", *argv], env=env, capture_output=True
    )
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr.startswith(b"error: invalid input: arrays and objects nest")


# the matrix of each input file role, as an array object: the relation's
# generator (1, i), the contraction 0.5 and the reference unitary 1
ARRAY_FILES = {
    "relation": lambda m: {"n": 1, "graph_generators": m},
    "param": lambda m: {"kind": "contraction", "matrix": m},
    "l0": lambda m: {"matrix": m},
}
VALID_MATRIX = {"relation": [[1.0, 1j]], "param": [[0.5]], "l0": [[1.0]]}


def _flip_a_padding_bit(b64: str) -> str:
    # the last character before the padding carries bits past the last
    # byte; flipping its lowest one changes the text, not the bytes
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    data = b64.rstrip("=")
    flipped = data[:-1] + alphabet[alphabet.index(data[-1]) ^ 1]
    flipped += b64[len(data):]
    assert base64.b64decode(flipped) == base64.b64decode(b64)
    return flipped


# each defect of an array object, and the message that names it
ARRAY_DEFECTS = {
    "dtype <f8": (lambda o: {**o, "dtype": "<f8"}, 'array "dtype" must be "<c16"'),
    "dtype >c16": (lambda o: {**o, "dtype": ">c16"}, 'array "dtype" must be "<c16"'),
    "boolean shape entry": (
        lambda o: {**o, "shape": [True, o["shape"][1]]}, 'array "shape" must be'
    ),
    "negative shape entry": (
        lambda o: {**o, "shape": [o["shape"][0], -o["shape"][1]]}, 'array "shape"'
    ),
    "three shape entries": (lambda o: {**o, "shape": [*o["shape"], 1]}, '"shape"'),
    "wrong byte count": (
        lambda o: {**o, "shape": [o["shape"][0], o["shape"][1] + 1]}, "bytes, not 16"
    ),
    "character outside the alphabet": (
        lambda o: {**o, "b64": "*" + o["b64"][1:]}, "not canonical base64"
    ),
    "line break": (
        lambda o: {**o, "b64": o["b64"][:4] + "\n" + o["b64"][4:]}, "not canonical"
    ),
    "missing padding": (
        lambda o: {**o, "b64": o["b64"].rstrip("=")}, "not canonical base64"
    ),
    "bits past the last byte": (
        lambda o: {**o, "b64": _flip_a_padding_bit(o["b64"])}, "not canonical"
    ),
    "not a string": (lambda o: {**o, "b64": 5}, "not canonical base64"),
    "extra key": (lambda o: {**o, "note": ""}, "must hold exactly"),
    "NaN entry": (lambda o: array_object([[math.nan] * o["shape"][1]]), "finite"),
    "infinite entry": (lambda o: array_object([[-math.inf] * o["shape"][1]]), "finite"),
}


@pytest.mark.parametrize("role", sorted(INPUT_FILES))
def test_array_objects_read_as_the_list_form(
    role, tmp_path, capsys, zero_relation_file
):
    reports = []
    for form in (array_object, pairs):
        text = json.dumps(ARRAY_FILES[role](form(VALID_MATRIX[role])))
        assert _run_on_input(role, text.encode(), tmp_path, zero_relation_file) == 0
        report = json.loads(capsys.readouterr().out)
        # the digest covers the bytes read, which differ
        reports.append({**report, "input_digest": None})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("defect", sorted(ARRAY_DEFECTS))
@pytest.mark.parametrize("role", sorted(INPUT_FILES))
def test_relation_commands_refuse_a_malformed_array_object(
    role, defect, tmp_path, capsys, zero_relation_file
):
    change, message = ARRAY_DEFECTS[defect]
    obj = change(array_object(VALID_MATRIX[role]))
    text = json.dumps(ARRAY_FILES[role](obj)).encode()
    code = _run_on_input(role, text, tmp_path, zero_relation_file)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid input: ")
    assert message in captured.err


def test_generated_relation_reads_as_its_list_form(tmp_path, capsys):
    # generate writes the generators as an array object; canonical on it and
    # on the list form of the same floats writes the same payload
    path, listed = tmp_path / "rel.json", tmp_path / "listed.json"
    argv = ["generate", "--n", "6", "--k", "2", "--seed", "4"]
    assert main([*argv, "--out-relation", str(path)]) == 0
    capsys.readouterr()
    relation = json.loads(path.read_text())
    assert set(relation["graph_generators"]) == {"b64", "dtype", "shape"}
    gens = fmt.matrix_from_json(relation["graph_generators"])
    listed.write_text(json.dumps({**relation, "graph_generators": pairs(gens)}))
    payloads = []
    for file in (path, listed):
        code, report = run_cli(capsys, "canonical", "--input", str(file))
        assert code == 0
        payloads.append(report["payload"])
    assert payloads[0] == payloads[1]


def test_relation_file_with_many_brackets_within_the_nesting_cap_is_read(
    tmp_path, capsys
):
    # more opening brackets than the cap, but nested below it, some in strings
    depth = fmt._MAX_NESTING - 1
    deep = "[" * depth + "]" * depth
    note = '\\"' + "[{" * fmt._MAX_NESTING
    obj = '{"n": 1, "graph_generators": [], "deep": %s, "note": "%s"}' % (deep, note)
    path = tmp_path / "rel.json"
    path.write_text(obj)
    assert fmt._nesting_depth(path.read_bytes()) == fmt._MAX_NESTING
    assert main(["canonical", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_an_integer_beyond_64_bits_reads_as_the_nearest_double(tmp_path, capsys):
    path = tmp_path / "rel.json"
    reports = []
    for entry in (str(2**64), "1.8446744073709552e19"):
        path.write_text(
            '{"n": 1, "graph_generators": [[[%s, 0.0], [0.0, %s]]]}' % (entry, entry)
        )
        assert main(["canonical", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        reports.append([line for line in lines if '"input_digest"' not in line])
    assert reports[0] == reports[1]


def test_convert_directions(capsys, zero_relation_file):
    code, report = run_cli(
        capsys, "convert", "--input", zero_relation_file, "--direction", "s2t"
    )
    assert code == 0 and report["payload"]["checks"]["triplet_identity_holds"]
    code, report = run_cli(
        capsys, "convert", "--input", zero_relation_file, "--direction", "t2s"
    )
    assert code == 0
    assert report["payload"]["roundtrip_error"] <= 1e-9


def sha256_of_file(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def test_input_digest_covers_every_input_file(tmp_path, capsys, zero_relation_file):
    rel_digest = sha256_of_file(zero_relation_file)
    _, report = run_cli(capsys, "canonical", "--input", zero_relation_file)
    assert report["input_digest"] == rel_digest

    digests = []
    for name, entry in (("i.json", [0.0, 1.0]), ("minus_i.json", [0.0, -1.0])):
        param = tmp_path / name
        param.write_text(json.dumps({"kind": "unitary_A", "matrix": [[entry]]}))
        code, report = run_cli(
            capsys,
            "extend",
            "--input", zero_relation_file,
            "--param", str(param),
            "--mode", "A",
        )
        assert code == 0
        joined = rel_digest + "\n" + sha256_of_file(param)
        expected = "sha256:" + hashlib.sha256(joined.encode("utf-8")).hexdigest()
        assert report["input_digest"] == expected
        digests.append(report["input_digest"])
    assert digests[0] != digests[1]

    l0 = tmp_path / "l0.json"
    l0.write_text(json.dumps({"matrix": [[[0.0, 1.0]]]}))
    code, report = run_cli(
        capsys,
        "convert",
        "--input", zero_relation_file,
        "--direction", "s2t",
        "--l0", str(l0),
    )
    assert code == 0
    joined = rel_digest + "\n" + sha256_of_file(l0)
    expected = "sha256:" + hashlib.sha256(joined.encode("utf-8")).hexdigest()
    assert report["input_digest"] == expected


def test_halfline_green(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(
        json.dumps({"f": [{"k": 0, "lambda": "1", "re": "1", "im": "0"}]})
    )
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "green", "--input", str(fn)
    )
    assert code == 0
    assert report["payload"]["lhs"] == {"re": "1", "im": "0"}
    assert report["payload"]["exactly_equal"] is True


def test_halfline_triplet_negative_result_is_pass(capsys):
    code, report = run_cli(capsys, "halfline", "--subcheck", "triplet")
    assert code == 0
    assert report["payload"]["raised"] == "DimensionMismatch"
    assert report["payload"]["indices"] == [1, 0]


def test_halfline_deficiency(capsys):
    code, report = run_cli(capsys, "halfline", "--subcheck", "deficiency")
    assert code == 0
    assert report["payload"]["indices"] == [1, 0]
    assert "outside the family" in report["payload"]["g2_exclusion"]


def test_halfline_resolvent_resonant(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 0, "lambda": "1", "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "resolvent", "--input", str(fn)
    )
    assert code == 0
    assert report["payload"]["solution"] == [
        {"k": 1, "lambda": "1", "re": "1", "im": "0"}
    ]


@pytest.mark.parametrize(
    "key, identity, trace",
    [((1, 1), False, True), ((0, 1), True, False), ((0, 2), False, False)],
)
def test_halfline_resolvent_check_fails_on_a_changed_solution(
    key, identity, trace, tmp_path, capsys, monkeypatch
):
    # u = t e^(-t) solves u + u' = e^(-t); adding a term at ``key`` breaks
    # the identity, the trace u(0) = 0, or both ((1 + d/dt) e^(-t) = 0)
    solve = hl.resolvent_solve
    monkeypatch.setattr(hl, "resolvent_solve", lambda f: solve(f) + hl.term(*key, 1))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 0, "lambda": "1", "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "resolvent", "--input", str(fn)
    )
    assert code == 1 and report["status"] == "fail"
    assert report["payload"]["resolvent_identity_exact"] is identity
    assert report["payload"]["trace_zero"] is trace


def test_halfline_resolvent_above_input_degree_cap(tmp_path, capsys):
    # t^32 e^(-t) is a valid input; the resolvent raises a resonant term's
    # degree by one, so its solution has degree 33, and since the cap
    # applies to function files, that solution is refused as input
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 32, "lambda": "1", "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "resolvent", "--input", str(fn)
    )
    assert code == 0
    assert report["payload"]["resolvent_identity_exact"] is True
    assert report["payload"]["trace_zero"] is True
    assert max(t["k"] for t in report["payload"]["solution"]) == 33
    fn.write_text(json.dumps(report["payload"]["solution"]))
    code = main(["halfline", "--subcheck", "resolvent", "--input", str(fn)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: invalid input: degree 33 exceeds the cap 32\n"


def test_halfline_input_degree_cap(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 33, "lambda": "1", "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "resolvent", "--input", str(fn)
    )
    assert code == 2 and report is None


@pytest.mark.parametrize("subcheck", ["green", "resolvent", "dissipative"])
def test_halfline_refuses_nesting_beyond_the_json_recursion_limit(
    subcheck, tmp_path, capsys
):
    depth = 100_000
    fn = tmp_path / "fn.json"
    fn.write_text("[" * depth + "]" * depth)
    code = main(["halfline", "--subcheck", subcheck, "--input", str(fn)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: invalid input: arrays and objects nest too deep\n"


def test_halfline_reads_a_5000_digit_rate(tmp_path, capsys):
    # plain digits past CPython's int-to-str limit of 4300 are read in halves
    rate = (10**5000 - 1) // 9
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 0, "lambda": "1" * 5000, "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "resolvent", "--input", str(fn)
    )
    assert code == 0 and report["status"] == "pass"
    solution = fmt.exppoly_from_json(report["payload"]["solution"])
    assert solution == hl.resolvent_solve(hl.term(0, rate, 1))
    assert {lam for _, lam in solution.terms} == {1, rate}


def _parse_digits(text: str) -> int:
    """An integer from its decimal digits, 500 at a time, so that no single
    ``int`` call meets the int-to-str digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 500):
        chunk = digits[i:i + 500]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


_BIG = "1" + "0" * 4400  # 10^4400, past the int-to-str limit


@pytest.mark.parametrize(
    "subcheck, terms, message",
    [
        (
            "dissipative",
            [
                {"k": 0, "lambda": "1", "re": "1/3", "im": "0"},
                {"k": 0, "lambda": "1e4400", "re": "1e4400", "im": "0"},
            ],
            "TraceNotZero: extension domain needs f(0) = 0, "
            f"got f(0) = 3{_BIG[2:]}1/3+0i",
        ),
        (
            "resolvent",
            [{"k": 0, "lambda": "-1e4400", "re": "1", "im": "0"}],
            f"invalid input: rate must be positive, got -{_BIG}",
        ),
        (
            "resolvent",
            [
                {"k": 0, "lambda": "1e4400", "re": "1", "im": "0"},
                {"k": 0, "lambda": "1e4400", "re": "2", "im": "0"},
            ],
            f"invalid input: duplicate term key (0, Fraction({_BIG}, 1))",
        ),
    ],
    ids=["trace", "rate-sign", "duplicate"],
)
def test_halfline_errors_write_values_past_the_str_limit(
    tmp_path, capsys, subcheck, terms, message
):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(terms))
    code = main(["halfline", "--subcheck", subcheck, "--input", str(fn)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_halfline_resolvent_writes_digits_beyond_the_str_limit(tmp_path, capsys):
    # a valid input whose solution has denominators near (10^200)^33, about
    # 6600 digits, beyond CPython's default int-to-str limit of 4300
    rate = 10**200 + 1
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 32, "lambda": str(rate), "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "resolvent", "--input", str(fn)
    )
    assert code == 0 and report["status"] == "pass"
    expected = resolvent_termwise(hl.term(32, rate, 1))
    written = {}
    for record in report["payload"]["solution"]:
        key = (record["k"], Fraction(record["lambda"]))
        parts = [record[part].partition("/") for part in ("re", "im")]
        written[key] = [
            Fraction(_parse_digits(num), _parse_digits(den) if den else 1)
            for num, _, den in parts
        ]
    assert written == {key: [c.re, c.im] for key, c in expected.terms.items()}
    assert max(c.re.denominator for c in expected.terms.values()) > 10**4300
    # the written solution, values up to 6610 characters, is valid input again
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(report["payload"]["solution"]))
    for subcheck in ("resolvent", "green"):
        code, again = run_cli(
            capsys, "halfline", "--subcheck", subcheck, "--input", str(solution)
        )
        assert code == 0 and again["status"] == "pass"


@pytest.mark.parametrize(
    "subcheck, terms",
    [
        (
            "resolvent",
            [
                {"k": 0, "lambda": "-1", "re": "0", "im": "0"},
                {"k": 1, "lambda": "1", "re": "1", "im": "0"},
            ],
        ),
        ("green", [{"k": -3, "lambda": "1", "re": "0", "im": "0"}]),
        (
            "dissipative",
            [
                {"k": 0, "lambda": "1", "re": "0", "im": "0"},
                {"k": 0, "lambda": "1", "re": "1", "im": "0"},
            ],
        ),
    ],
)
def test_halfline_rejects_bad_key_with_zero_coefficient(
    subcheck, terms, tmp_path, capsys
):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(terms))
    code = main(["halfline", "--subcheck", subcheck, "--input", str(fn)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid input: ")


def test_halfline_dissipative_requires_trace_zero(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 0, "lambda": "1", "re": "1", "im": "0"}]))
    code, _ = run_cli(
        capsys, "halfline", "--subcheck", "dissipative", "--input", str(fn)
    )
    assert code == 2  # TraceNotZero is a precondition violation

    fn.write_text(json.dumps([{"k": 1, "lambda": "1", "re": "1", "im": "0"}]))
    code, report = run_cli(
        capsys, "halfline", "--subcheck", "dissipative", "--input", str(fn)
    )
    assert code == 0
    assert report["payload"]["re_inner"] == "0"


def test_sweep(capsys):
    code, report = run_cli(capsys, "sweep", "--count", "10", "--seed", "5")
    assert code == 0
    assert report["payload"]["failures"] == []


def test_report_written_to_out_path(tmp_path, zero_relation_file, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--input", zero_relation_file, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"


def test_analyze_rejects_infinite_generator(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"n": 1, "graph_generators": [[[Infinity, 0.0], [0.0, 1.0]]]}')
    code, report = run_cli(capsys, "analyze", "--input", str(path))
    assert code == 2 and report is None


# Reports without paths or LAPACK-computed floats; their bytes hold on any machine.
@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["sweep", "--count", "5", "--seed", "0"],
            "5cd10c17ad446ab2b1413809dd3c1a73fe33feba1d6d086e2310c01b13269166",
        ),
        (
            ["halfline", "--subcheck", "deficiency"],
            "fbb125f10ac029dff34ddbe5ea21b2b77b3f72500de25df113d68564d933de21",
        ),
        (
            ["halfline", "--subcheck", "triplet"],
            "897c83646e3b76a05abee59c5496e268e4220f12f515df1f27eb74555ec41a78",
        ),
    ],
)
def test_report_bytes_pinned(argv, sha256, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    # the digests pin the bytes of the report without its "schema" key,
    # which these payloads, holding no arrays, share with schemas 1 and 2
    assert report.pop("schema") == 3
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.fixture
def command_argv(tmp_path, zero_relation_file):
    param = tmp_path / "param.json"
    param.write_text(json.dumps({"kind": "unitary_A", "matrix": [[[0.0, 1.0]]]}))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps([{"k": 1, "lambda": "1", "re": "1", "im": "0"}]))
    relation = ["--input", zero_relation_file]
    return {
        "analyze": ["analyze", *relation],
        "canonical": ["canonical", *relation],
        "extend": ["extend", *relation, "--param", str(param), "--mode", "A"],
        "convert": ["convert", *relation, "--direction", "t2s"],
        "generate": [
            "generate", "--n", "2", "--k", "1", "--seed", "3",
            "--out-relation", str(tmp_path / "gen.json"),
        ],
        "halfline": ["halfline", "--subcheck", "resolvent", "--input", str(fn)],
        "sweep": ["sweep", "--count", "2"],
    }


@pytest.fixture
def generated_relation_file(tmp_path, capsys):
    path = tmp_path / "n8k3.json"
    argv = ["generate", "--n", "8", "--k", "3", "--seed", "5"]
    assert main(argv + ["--out-relation", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize(
    "command, generated",
    [
        *(
            pytest.param(command, False, id=command)
            for command in [
                "analyze", "canonical", "extend", "convert", "generate", "halfline",
                "sweep",
            ]
        ),
        # matrices of several shapes: an n = 8 relation with indices (5, 5)
        pytest.param("canonical", True, id="canonical-n8k3"),
        pytest.param("convert", True, id="convert-n8k3"),
    ],
)
def test_every_report_is_canonical_json(
    command, generated, command_argv, generated_relation_file, capsys
):
    argv = list(command_argv[command])
    if generated:
        argv[argv.index("--input") + 1] = generated_relation_file
    assert main(argv) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report["command"] == command
    envelope = {"schema", "command", "args", "input_digest", "tol", "status", "payload"}
    assert set(report) == envelope
    assert report["schema"] == fmt.REPORT_SCHEMA == 3


@pytest.mark.parametrize(
    "matrix",
    [
        [[[0.0, "1"]]],  # string entry
        [[[0.0, 1.0, 0.0]]],  # three-entry pair
        [[[0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]],  # ragged rows
    ],
)
def test_extend_rejects_malformed_param_matrix(
    matrix, tmp_path, zero_relation_file, capsys
):
    param = tmp_path / "param.json"
    param.write_text(json.dumps({"kind": "unitary_A", "matrix": matrix}))
    code = main(
        ["extend", "--input", zero_relation_file, "--param", str(param), "--mode", "A"]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid input:")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "{dir}"],
        ["analyze", "--input", "{rel}", "--out", "{dir}"],
        ["generate", "--n", "2", "--k", "1", "--seed", "0", "--out-relation", "{dir}"],
    ],
    ids=["input", "out", "out-relation"],
)
def test_directory_as_a_path_is_an_error(tmp_path, zero_relation_file, capsys, argv):
    argv = [a.format(dir=tmp_path, rel=zero_relation_file) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_out_into_missing_directory(tmp_path, zero_relation_file, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["analyze", "--input", zero_relation_file, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_one_parser_serves_every_call_without_carrying_values(capsys):
    code, report = run_cli(capsys, "sweep", "--count", "2", "--seed", "4", "--tol", "1e-6")
    assert code == 0 and report["args"] == {"count": 2, "seed": 4}
    # a value outside a flag's range is a usage error, like a malformed one
    bad_flags = (["--count", "x"], ["--count", "-3"], ["--tol", "inf"], ["--tol", "0"])
    for bad in bad_flags:
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *bad])
        assert exc.value.code == 2
    capsys.readouterr()
    # the defaults come back on the next call through the same parser
    code, report = run_cli(capsys, "sweep", "--count", "1")
    assert code == 0 and report["args"] == {"count": 1, "seed": 0}
    assert report["tol"] == build_parser().parse_args(["sweep"]).tol != 1e-6
    assert build_parser() is build_parser()


GENERATE_TO_R = ["generate", "--out-relation", "r"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--count", "1", "--seed", "-5"], "--seed"),
        ([*GENERATE_TO_R, "--n", "2", "--k", "1", "--seed", "-1"], "--seed"),
        ([*GENERATE_TO_R, "--n", "0", "--k", "0", "--seed", "1"], "--n"),
        ([*GENERATE_TO_R, "--n", "2", "--k", "-1", "--seed", "1"], "--k"),
    ],
)
def test_a_negative_seed_is_a_usage_error_that_names_the_seed(
    argv, flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err and "invalid input" not in captured.err
    assert captured.out == "" and not (tmp_path / "r").exists()


def test_seeds_from_zero_up_are_accepted(tmp_path, capsys):
    code, report = run_cli(capsys, "sweep", "--count", "1", "--seed", str(2**70))
    assert code == 0 and report["args"] == {"count": 1, "seed": 2**70}
    path = str(tmp_path / "r.json")
    argv = ["--n", "2", "--k", "1", "--seed", "0", "--out-relation", path]
    code, report = run_cli(capsys, "generate", *argv)
    assert code == 0 and report["args"]["seed"] == 0


def test_rank_tol_only_on_relation_commands(zero_relation_file, capsys):
    assert main(["canonical", "--input", zero_relation_file, "--rank-tol", "1e-8"]) == 0
    capsys.readouterr()
    # outside (0, 1) the cut would drop every generator of the input
    for bad in ("nan", "2", "1", "0", "-1e-8"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", zero_relation_file, "--rank-tol", bad])
        assert exc.value.code == 2
    for bad in ("inf", "nan", "-1e-9"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", zero_relation_file, "--tol", bad])
        assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--rank-tol", "1e-8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, module, check",
    [("canonical", ext, "adjoint_formula_check"), ("extend", rel, "extends")],
)
def test_one_failed_check_fails_the_report(
    command, module, check, command_argv, monkeypatch, capsys
):
    monkeypatch.setattr(module, check, lambda *args: False)
    code, report = run_cli(capsys, *command_argv[command])
    assert code == 1 and report["status"] == "fail"
    assert list(report["payload"]["checks"].values()).count(False) == 1


@pytest.mark.parametrize(
    "n, k",
    # the zero relation, where Graph(-H0) has no rows, then k = 0, k = n and
    # an arbitrary k at two larger sizes
    [(1, 0), (32, 0), (32, 32), (32, 13), (64, 0), (64, 64), (64, 41)],
)
def test_canonical_report_shares_rows_with_its_extension(n, k, tmp_path, capsys):
    path = tmp_path / "relation.json"
    argv = ["generate", "--n", str(n), "--k", str(k), "--seed", str(k)]
    assert main([*argv, "--out-relation", str(path)]) == 0
    capsys.readouterr()
    assert main(["canonical", "--input", str(path)]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    # the derived objects, rebuilt from the written keys by the library's
    # own operations, are bit for bit those the library builds: the
    # Graph(H0*) basis from its Graph(-H0) block and the g1 and g2 bases, F
    # from its shape and the extension from its column ranges of the basis
    written = report["payload"]["system"]
    g_neg, g1, g2 = (
        fmt.matrix_from_json(written[key]).T
        for key in ("graph_neg_base", "g1_basis", "g2_basis")
    )
    assert written["block_widths"] == [g_neg.shape[1], g1.shape[1], g2.shape[1]]
    basis = np.hstack([g_neg, bd._hat_basis(g1, 1.0), bd._hat_basis(g2, -1.0)])
    system = bd.canonical_system(fmt.relation_from_json(json.loads(path.read_text())))
    assert bits(basis) == bits(system.adjoint_graph.basis)
    assert bits(g1) == bits(system.g1.basis) and bits(g2) == bits(system.g2.basis)
    k, d = written["F_shape"]
    assert bits(np.eye(k, d, d - k)) == bits(system.f_matrix)
    columns = report["payload"]["max_dissipative_extension"]["graph_columns"]
    graph = np.hstack([basis[:, start:stop] for start, stop in columns])
    assert bits(graph) == bits(ext.canonical_max_dissipative(system).graph.basis)


def bits(a) -> bytes:
    """The bytes of ``a`` as a little-endian complex128 array."""
    return np.ascontiguousarray(a, "<c16").tobytes()


@pytest.fixture
def tiny_entries_file(tmp_path):
    # the graph of a skew-Hermitian map on span(e1) with entries that repr
    # writes in exponent form
    path = tmp_path / "tiny.json"
    generator = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1e-6, 2e-7]]
    path.write_text(json.dumps({"n": 2, "graph_generators": [generator]}))
    return str(path)


@pytest.mark.parametrize(
    "command, arrays",
    # no arrays; arrays with no rows; arrays with exponent-form entries
    [("halfline", 0), ("canonical", 3), ("canonical-tiny", 3)],
)
def test_emit_writes_the_pieces_of_dumps(
    command, arrays, zero_relation_file, tiny_entries_file, tmp_path, capsys,
    monkeypatch,
):
    argv = {
        "halfline": ["halfline", "--subcheck", "deficiency"],
        "canonical": ["canonical", "--input", zero_relation_file],
        "canonical-tiny": ["canonical", "--input", tiny_entries_file],
    }[command]
    reports = []
    parts = fmt._report_parts
    monkeypatch.setattr(fmt, "_report_parts", lambda o: reports.append(o) or parts(o))
    out = tmp_path / "report.json"
    assert main(argv) == 0
    assert main([*argv, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    # every array is an array object, and no array entry is written as
    # text: the numbers alone on their lines are indices and shapes
    assert text.count('"dtype": "<c16"') == arrays
    alone = re.findall(r"^ +-?([\d.]+(?:e[-+]\d+)?),?$", text, flags=re.MULTILINE)
    assert all(number.isdigit() for number in alone)
    assert text == fmt.dumps(reports[0])
    assert out.read_bytes() == text.encode("utf-8")
