"""Compare the CLI reports of this source tree with those of another tree.

Run from the root of a checkout (the package need not be installed):

    python3 tools/compare_reports.py --baseline-src OTHER/src [--out FILE]

Every case runs ``python3 -m skewext.cli`` once per tree, on the same input
files, and compares the two stdout texts.  The relation files are written
by this tree's ``generate`` (whose output is compared too): n = 1..5 at
every k, and n = 8, 32 and 64 at k = 0, n // 2 and n.  Each relation goes through
``analyze``, ``canonical``, both ``convert`` directions and ``extend`` in
modes A, B and phi (unitary and contraction parameters drawn from a seeded
generator); ``sweep --count 200 --seed 0`` and every ``halfline`` subcheck
run too.  Each case is run twice on this tree, to check that its report is
the same run to run.  Reports are compared in their schema-1 form
(``tools/expand_report.py``): a schema-2 report drops its ``schema`` key and
has its ``canonical`` payload expanded, so a schema-2 tree and a schema-1
baseline differ only where their numbers do.

For every report that differs, each JSON number that differs is listed by
its key path, with list indices dropped: how many differ, the largest
absolute difference, and how many of the differing [re, im] entries are
pivots.  A pivot is an [re, im] entry of a basis row with imaginary part 0
and the largest modulus of its row in this tree's report.  The summary is
printed as JSON, and also written to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from expand_report import expand_report  # noqa: E402
from skewext import formats as fmt  # noqa: E402
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


def _run(src: str, argv: list, cwd: str) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "skewext.cli", *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True,
    )
    return f"exit {done.returncode}\n{done.stderr}{done.stdout}"


def _expanded(text: str) -> str:
    """The text of a run with its report in schema-1 form; a run that
    wrote no report comes back as it is."""
    head, _, body = text.partition("\n")
    try:
        report = json.loads(body)
    except ValueError:
        return text
    return f"{head}\n{fmt.dumps(expand_report(report))}"


def _cases(tmp: str) -> list:
    """(name, argv) of every case, with the input files written into ``tmp``."""
    rng = np.random.default_rng(SEED)
    cases = []
    for n, k in SIZES:
        rel = f"rel_{n}_{k}.json"
        generate = ["generate", "--n", str(n), "--k", str(k), "--seed", str(n + k)]
        cases.append((f"generate n={n} k={k}", [*generate, "--out-relation", "gen.json"]))
        # the file the other cases read is written once, by this tree
        _run(str(ROOT / "src"), [*generate, "--out-relation", rel], tmp)
        g = n - k  # the deficiency indices of a random relation are (n - k, n - k)
        for kind, matrix in (
            ("unitary_A", random_unitary(g, rng)),
            ("unitary_B", random_unitary(g, rng)),
            ("contraction", 0.5 * random_unitary(g, rng)),
        ):
            pairs = np.stack([matrix.real, matrix.imag], axis=-1).tolist()
            with open(os.path.join(tmp, f"{kind}_{g}.json"), "w") as fh:
                json.dump({"kind": kind, "matrix": pairs}, fh)
        common = ["--input", rel]
        cases += [
            (f"analyze n={n} k={k}", ["analyze", *common]),
            (f"canonical n={n} k={k}", ["canonical", *common]),
            (f"convert s2t n={n} k={k}", ["convert", *common, "--direction", "s2t"]),
            (f"convert t2s n={n} k={k}", ["convert", *common, "--direction", "t2s"]),
        ]
        for mode, kind in (("A", "unitary_A"), ("B", "unitary_B"), ("phi", "contraction")):
            argv = ["extend", *common, "--mode", mode, "--param", f"{kind}_{g}.json"]
            cases.append((f"extend {mode} n={n} k={k}", argv))
    with open(os.path.join(tmp, "f.json"), "w") as fh:
        json.dump(HALFLINE_FUNCTION, fh)
    cases.append(("sweep count=200 seed=0", ["sweep", "--count", "200", "--seed", "0"]))
    for subcheck in ("deficiency", "triplet", "green", "resolvent", "dissipative"):
        argv = ["halfline", "--subcheck", subcheck, "--input", "f.json"]
        cases.append((f"halfline {subcheck}", argv))
    return cases


def _is_row(x) -> bool:
    """Whether ``x`` is a basis row: a nonempty list of [re, im] pairs."""
    return bool(x) and all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(v, float) for v in e)
        for e in x
    )


def _differences(new, old, path: str, out: dict):
    """Add each number and each [re, im] entry where ``new`` and ``old``
    differ to ``out[path]``, the path holding keys but no list indices."""
    if isinstance(new, dict):
        for key in new:
            _differences(new[key], old[key], f"{path}.{key}", out)
    elif isinstance(new, list):
        if _is_row(new):
            modulus = max(math.hypot(*e) for e in new)
            for a, b in zip(new, old):
                if a != b:
                    out[path]["entries"] += 1
                    out[path]["pivot_entries"] += a[1] == 0.0 and abs(a[0]) == modulus
        for a, b in zip(new, old):
            _differences(a, b, path, out)
    elif new != old:
        stats = out[path]
        stats["numbers"] += 1
        if isinstance(new, float) and isinstance(old, float):
            stats["max_abs"] = max(stats["max_abs"], abs(new - old))


def _summary(new: str, old: str) -> dict:
    if new == old:
        return {"identical": True}
    head_new, _, body_new = new.partition("\n")
    head_old, _, body_old = old.partition("\n")
    try:
        a, b = json.loads(body_new), json.loads(body_old)
    except ValueError:
        return {"identical": False, "exit": [head_new, head_old]}
    stats = defaultdict(
        lambda: {"numbers": 0, "max_abs": 0.0, "entries": 0, "pivot_entries": 0}
    )
    _differences(a, b, "", stats)
    keys = {path: {k: v for k, v in s.items() if v} for path, s in stats.items()}
    return {"identical": False, "exit": [head_new, head_old], "keys": keys}


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
            summary = _summary(_expanded(new), _expanded(_run(base, case, tmp)))
            summary["repeatable"] = new == _run(here, case, tmp)
            result[name] = summary
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
