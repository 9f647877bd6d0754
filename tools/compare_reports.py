"""Compare the CLI reports of this source tree with those of another tree.

Run from the root of a checkout (the package need not be installed):

    python3 tools/compare_reports.py --baseline-src OTHER/src [--out FILE]

Every case runs ``python3 -m skewext.cli`` once per tree, on the same input
files, and compares exit code, stderr and stdout, and the relation file a
``generate`` case writes.  The relation files the other cases read are
drawn by this tree's ``generate`` and written in the list form, rows of
[re, im] pairs, which every report schema reads: n = 1..5 at every k, and
n = 8, 32 and 64 at k = 0, n // 2 and n.  Each relation goes through
``analyze``, ``canonical``, both ``convert`` directions and ``extend`` in
modes A, B and phi, on unitary and contraction parameters drawn for its
(n, k) from a seeded generator; ``sweep --count 200 --seed 0`` and every
``halfline`` subcheck run too, and so do cases that exit 2
(``ERROR_CASES``), so error messages are compared as well.  Each case is
run twice on this tree, to check that its output is the same run to run.

Two reports of the same "schema" are compared as written, byte for byte.
When the two reports of a case carry different "schema" values, they are
compared by decoded values instead: each array, an array object
{"b64", "dtype", "shape"} in schema 3 and a list of rows of [re, im]
pairs before, must hold the same doubles bit for bit, every other key
must be equal, and so must the relation files a ``generate`` case writes,
decoded the same way.  The "schema" value itself, and ``generate``'s
``file_digest`` (the sha256 of the file's bytes) when the files decode
equal, are the differences a schema change expects; a case that differs in
nothing else is ``equal_decoded``.  The tool exits 1 when any case is
neither identical nor equal decoded, or not repeatable.

For every report that differs, each number and each array entry that
differs is listed by its key path, with list indices dropped: how many
differ, the largest absolute difference, and how many of the differing
array entries are pivots.  A pivot is an entry of a basis row with
imaginary part 0 and the largest modulus of its row in this tree's report.
A run that differs and wrote no report is listed with both texts.  The
summary is printed as JSON, and also written to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skewext.sampling import random_unitary  # noqa: E402

SEED = 3
#: the (n, k) of the relation files; ``generate`` writes each with seed n + k
SIZES = [(n, k) for n in range(1, 6) for k in range(n + 1)]
SIZES += [(n, k) for n in (8, 32, 64) for k in (0, n // 2, n)]
HALFLINE_FUNCTION = [
    {"k": 0, "lambda": "1", "re": "2", "im": "0"},
    {"k": 1, "lambda": "1/2", "re": "-3", "im": "1/7"},
    {"k": 2, "lambda": "3", "re": "1/5", "im": "-2"},
]
#: (name, file name, file content, argv) of the cases that exit 2; the
#: relation and parameter files of n = 1, k = 0 are those ``_cases`` writes
ERROR_CASES = [
    (
        "halfline repeated key", "repeat.json",
        [{"k": 0, "lambda": "1", "re": "1"}, {"k": 0, "lambda": "2/2", "re": "2"}],
        ["halfline", "--subcheck", "resolvent", "--input", "repeat.json"],
    ),
    (
        "halfline degree past the cap", "degree.json",
        [{"k": 33, "lambda": "1", "re": "1"}],
        ["halfline", "--subcheck", "resolvent", "--input", "degree.json"],
    ),
    (
        "halfline negative rate", "rate.json",
        [{"k": 0, "lambda": "-1", "re": "1"}],
        ["halfline", "--subcheck", "resolvent", "--input", "rate.json"],
    ),
    (
        "canonical not skew-symmetric", "symmetric.json",
        {"n": 1, "graph_generators": [[[1.0, 0.0], [1.0, 0.0]]]},
        ["canonical", "--input", "symmetric.json"],
    ),
    (
        "extend A with a contraction", None, None,
        ["extend", "--input", "rel_1_0.json", "--mode", "A",
         "--param", "contraction_1_0.json"],
    ),
]
#: the keys a schema change expects to differ: the envelope's "schema", and
#: the digest of the relation file ``generate`` writes
SCHEMA_KEYS = {".schema", ".payload.file_digest"}


def _run(src: str, argv: list, cwd: str) -> dict:
    """The exit code, stderr and stdout of one CLI run, and the text of the
    relation file it wrote (``--out-relation``), or None."""
    done = subprocess.run(
        [sys.executable, "-m", "skewext.cli", *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    written = None
    if "--out-relation" in argv and done.returncode == 0:
        path = os.path.join(cwd, argv[argv.index("--out-relation") + 1])
        with open(path, encoding="utf-8") as fh:
            written = fh.read()
    return {
        "text": f"exit {done.returncode}\n{done.stderr}{done.stdout}",
        "written": written,
    }


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _cases(tmp: str) -> list:
    """(name, argv) of every case, with the input files written into ``tmp``."""
    rng = np.random.default_rng(SEED)
    cases = []
    for n, k in SIZES:
        rel = f"rel_{n}_{k}.json"
        generate = ["generate", "--n", str(n), "--k", str(k), "--seed", str(n + k)]
        argv = [*generate, "--out-relation", "gen.json"]
        cases.append((f"generate n={n} k={k}", argv))
        # the file the other cases read is drawn once, by this tree, and
        # written in the list form every schema reads
        written = _run(str(ROOT / "src"), [*generate, "--out-relation", rel], tmp)
        relation = json.loads(written["written"])
        relation["graph_generators"] = _pairs(_array(relation["graph_generators"]))
        with open(os.path.join(tmp, rel), "w") as fh:
            json.dump(relation, fh)
        g = n - k  # the deficiency indices of a random relation are (n - k, n - k)
        for kind, matrix in (
            ("unitary_A", random_unitary(g, rng)),
            ("unitary_B", random_unitary(g, rng)),
            ("contraction", 0.5 * random_unitary(g, rng)),
        ):
            with open(os.path.join(tmp, f"{kind}_{n}_{k}.json"), "w") as fh:
                json.dump({"kind": kind, "matrix": _pairs(matrix)}, fh)
        common = ["--input", rel]
        cases += [
            (f"analyze n={n} k={k}", ["analyze", *common]),
            (f"canonical n={n} k={k}", ["canonical", *common]),
            (f"convert s2t n={n} k={k}", ["convert", *common, "--direction", "s2t"]),
            (f"convert t2s n={n} k={k}", ["convert", *common, "--direction", "t2s"]),
        ]
        for mode, kind in (("A", "unitary_A"), ("B", "unitary_B"), ("phi", "contraction")):
            param = f"{kind}_{n}_{k}.json"
            argv = ["extend", *common, "--mode", mode, "--param", param]
            cases.append((f"extend {mode} n={n} k={k}", argv))
    with open(os.path.join(tmp, "f.json"), "w") as fh:
        json.dump(HALFLINE_FUNCTION, fh)
    cases.append(("sweep count=200 seed=0", ["sweep", "--count", "200", "--seed", "0"]))
    for subcheck in ("deficiency", "triplet", "green", "resolvent", "dissipative"):
        argv = ["halfline", "--subcheck", subcheck, "--input", "f.json"]
        cases.append((f"halfline {subcheck}", argv))
    for name, file, content, argv in ERROR_CASES:
        if file:
            with open(os.path.join(tmp, file), "w") as fh:
                json.dump(content, fh)
        cases.append((name, argv))
    return cases


def _is_array(x) -> bool:
    """Whether ``x`` is a schema-3 array object."""
    return isinstance(x, dict) and set(x) == {"b64", "dtype", "shape"}


def _array(x) -> np.ndarray:
    """The complex matrix of an array object or of a list of rows of
    [re, im] pairs, decoded here, independently of the library's reader."""
    if _is_array(x):
        raw = base64.b64decode(x["b64"], validate=True)
        return np.frombuffer(raw, np.dtype(x["dtype"])).reshape(x["shape"])
    rows = np.array(x, dtype=float).reshape(len(x), len(x[0]) if x else 0, 2)
    # a view keeps every bit; re + 1j * im would turn an imaginary -0.0 to 0.0
    return rows.view(complex)[..., 0]


def _entry_bits(m: np.ndarray) -> np.ndarray:
    """The (re, im) bits of each entry of ``m``, as uint64 pairs."""
    return np.ascontiguousarray(m, "<c16").view("<u8").reshape(*m.shape, 2)


def _array_differences(new, old, path: str, out: dict):
    """Add each entry where the arrays ``new`` and ``old`` differ in any bit
    to ``out[path]``, or their shapes when those differ.  A list with no
    rows has no width, so it matches an array of any width with no rows."""
    a, b = _array(new), _array(old)
    if a.shape[0] == b.shape[0] == 0:
        return
    if a.shape != b.shape:
        out[path]["shapes"] += 1
        return
    differ = (_entry_bits(a) != _entry_bits(b)).any(axis=-1)
    if not differ.any():
        return
    stats = out[path]
    stats["entries"] += int(differ.sum())
    stats["max_abs"] = max(stats["max_abs"], float(np.abs(a - b)[differ].max()))
    modulus = np.abs(a).max(axis=1, keepdims=True)
    pivots = (a.imag == 0) & (np.abs(a.real) == modulus) & differ
    stats["pivot_entries"] += int(pivots.sum())


def _differences(new, old, path: str, out: dict):
    """Add each number and each array entry where ``new`` and ``old``
    differ to ``out[path]``, the path holding keys but no list indices;
    an array is an array object on either side."""
    if _is_array(new) or _is_array(old):
        if isinstance(new, (dict, list)) and isinstance(old, (dict, list)):
            _array_differences(new, old, path, out)
        else:
            out[path]["numbers"] += 1
    elif isinstance(new, dict) and isinstance(old, dict):
        for key in new.keys() | old.keys():
            if key in new and key in old:
                _differences(new[key], old[key], f"{path}.{key}", out)
            else:
                out[f"{path}.{key}"]["keys"] += 1
    elif isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        for a, b in zip(new, old):
            _differences(a, b, path, out)
    elif new != old or type(new) is not type(old):
        stats = out[path]
        stats["numbers"] += 1
        if isinstance(new, float) and isinstance(old, float):
            stats["max_abs"] = max(stats["max_abs"], abs(new - old))


def _summary(new: dict, old: dict) -> dict:
    if new == old:
        return {"identical": True}
    head_new, _, body_new = new["text"].partition("\n")
    head_old, _, body_old = old["text"].partition("\n")
    try:
        a, b = json.loads(body_new), json.loads(body_old)
    except ValueError:
        # no report on one side: an error run, whose stderr is the text
        return {"identical": False, "exit": [head_new, head_old],
                "text": [body_new, body_old]}
    stats = defaultdict(
        lambda: {"numbers": 0, "max_abs": 0.0, "entries": 0, "pivot_entries": 0,
                 "keys": 0, "shapes": 0}
    )
    _differences(a, b, "", stats)
    if (new["written"] is None) != (old["written"] is None):
        stats[".written"]["keys"] += 1
    elif new["written"] is not None:
        written = json.loads(new["written"]), json.loads(old["written"])
        _differences(*written, ".written", stats)
    keys = {path: {k: v for k, v in s.items() if v} for path, s in stats.items()}
    summary = {"identical": False, "exit": [head_new, head_old], "keys": keys}
    if a.get("schema") != b.get("schema"):
        # a written file that decodes unequal is listed under ".written"
        expected = set(keys) <= SCHEMA_KEYS
        summary["equal_decoded"] = head_new == head_old and expected
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline-src", required=True, help="source tree to compare with")
    parser.add_argument("--out", help="path of the JSON summary to write")
    args = parser.parse_args(argv)
    here, base = str(ROOT / "src"), str(Path(args.baseline_src).resolve())
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in _cases(tmp):
            new = _run(here, case, tmp)
            summary = _summary(new, _run(base, case, tmp))
            summary["repeatable"] = new == _run(here, case, tmp)
            result[name] = summary
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    same = all(
        (s["identical"] or s.get("equal_decoded", False)) and s["repeatable"]
        for s in result.values()
    )
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
