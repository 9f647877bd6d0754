"""Per-layer and end-to-end timings of skewext, written as one JSON file.

Run from the root of a checkout (the package need not be installed):

    python3 tools/layer_timings.py --out BENCH.json [--baseline-src OTHER/src]

BLAS is pinned to one thread before numpy loads.  Every in-process figure
is the best of ``REPEAT`` wall-clock runs (``time.perf_counter``) after
one untimed warm-up call; inputs are built outside the timed region.  The
CLI figures are the median wall time of ``REPEAT`` fresh interpreters
running ``python3 -m skewext.cli``, so they include the import.  With
``--baseline-src`` the CLI figures are also taken with that source tree
on ``PYTHONPATH`` (``cli_baseline``), the two trees taking turns, and the
half-line figures are also taken with that tree's ``halfline`` and
``formats`` modules (``halfline_baseline``), the two trees taking turns at
each size, for a before/after comparison on the same machine.

Relations are ``relation.random_skew_symmetric(n, n // 2, seed)``, so the
deficiency indices are equal and every triplet construction applies.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skewext import boundary as bd  # noqa: E402
from skewext import extensions as ext  # noqa: E402
from skewext import formats as fmt  # noqa: E402
from skewext import halfline as hl  # noqa: E402
from skewext import relation as rel  # noqa: E402
from skewext import subspace as sub  # noqa: E402
from skewext.sampling import random_unitary  # noqa: E402

SIZES = (4, 16, 64, 128)
HALFLINE_TERMS = (5, 20, 60)
SEED = 7
REPEAT = 7


def _best(fn, *args):
    fn(*args)
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return float(f"{min(times):.4g}")


def _median(times):
    return float(f"{statistics.median(times):.4g}")


def layer_timings(n: int) -> dict:
    rng = np.random.default_rng(SEED)
    h = rel.random_skew_symmetric(n, n // 2, SEED)
    a = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
    s = bd.canonical_system(h)
    d = s.g1.dim
    l = random_unitary(d, rng)
    t = bd.system_to_triplet(s, np.eye(d))
    k = 0.5 * random_unitary(d, rng)
    ext_a = ext.system_unitary_extension(s, l)
    ext_phi = ext.extension_from_contraction(t, k)
    dissip = ext.canonical_max_dissipative(s)
    payload = {
        "system": fmt.system_to_json(s),
        "max_dissipative_extension": fmt.relation_to_json(dissip),
    }
    # the two graphs the adjoint formula compares
    g_neg, ghat1, _ = bd.canonical_pieces(s)
    formula_lhs = rel.adjoint(dissip).graph
    formula_rhs = rel.negate(
        rel.Relation(n, sub.Subspace(2 * n, np.hstack([g_neg.basis, ghat1.basis])))
    ).graph
    relation_text = fmt.dumps(fmt.relation_to_json(h))
    relation_obj = json.loads(relation_text)
    gens = relation_obj["graph_generators"]
    # the largest array of the canonical payload, at its depth in the report
    # (report, payload, system or extension, array)
    entries = [v for part in payload.values() for v in part.values()]
    largest = max((v for v in entries if isinstance(v, np.ndarray)), key=np.size)
    b = _best
    with tempfile.TemporaryDirectory() as tmp:
        relation_path = os.path.join(tmp, "relation.json")
        with open(relation_path, "w", encoding="utf-8") as fh:
            fh.write(relation_text)
        relation_load_s = b(fmt._load_numeric_json, relation_path)
    return {
        "indices": [s.g1.dim, s.g2.dim],
        "subspace.span_matrix_s": b(sub.span_matrix, a),
        "subspace.complement_s": b(sub.complement, a),
        "subspace.distance_s": b(sub.distance, formula_lhs, formula_rhs),
        "subspace.contains_subspace_s": b(
            sub.contains_subspace, s.adjoint_graph, h.graph
        ),
        "relation.adjoint_s": b(rel.adjoint, h),
        "relation.kernel_s": b(rel.kernel, h),
        "relation.mul_part_s": b(rel.mul_part, h),
        "relation.domain_s": b(rel.domain, h),
        "relation.deficiency_s": b(rel.deficiency, h),
        "boundary.canonical_system_s": b(bd.canonical_system, h),
        "boundary.system_to_triplet_s": b(bd.system_to_triplet, s, np.eye(d)),
        "boundary.triplet_to_system_s": b(bd.triplet_to_system, t),
        "extensions.system_unitary_extension_s": b(ext.system_unitary_extension, s, l),
        "extensions.system_unitary_readoff_s": b(ext.system_unitary_readoff, s, ext_a),
        "extensions.triplet_unitary_extension_s": b(
            ext.triplet_unitary_extension, t, l
        ),
        "extensions.extension_from_contraction_s": b(
            ext.extension_from_contraction, t, k
        ),
        "extensions.boundary_contraction_of_s": b(
            ext.boundary_contraction_of, t, ext_phi
        ),
        "extensions.canonical_max_dissipative_s": b(ext.canonical_max_dissipative, s),
        "extensions.adjoint_formula_check_s": b(ext.adjoint_formula_check, s),
        "formats.report_bytes": len(fmt.dumps(payload)),
        "formats.report_encode_dumps_s": b(fmt.dumps, payload),
        "formats.array_write_s": b(fmt._array_to_json, largest, 3),
        "formats.relation_file_bytes": len(relation_text),
        "formats.relation_load_s": relation_load_s,
        "formats.relation_pairs": sum(len(g) for g in gens),
        "formats.decode_matrix_from_json_s": b(fmt.matrix_from_json, gens),
        "formats.relation_from_json_s": b(fmt.relation_from_json, relation_obj),
    }


def _random_function(rnd: random.Random, count: int, module=hl):
    """``count`` terms c t^k e^(-lam t) with distinct (k, lam), k in 0..8,
    lam = p/q with p in 1..12 and q in 1..4, and Re c > 0, as an ``ExpPoly``
    of ``module``."""
    terms = {}
    while len(terms) < count:
        key = (rnd.randint(0, 8), Fraction(rnd.randint(1, 12), rnd.randint(1, 4)))
        terms[key] = module.RationalComplex(
            Fraction(rnd.randint(1, 9), rnd.randint(1, 6)),
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)),
        )
    return module.ExpPoly(terms)


def _resolvent_check(u, f):
    """The identity check of ``halfline --subcheck resolvent``:
    (1 + d/dt) u == f by one kernel call."""
    return u.plus_derivative() == f


def _records(f) -> list:
    """The term records of a function, one dict per term, as function files
    hold them."""
    return [
        {"k": k, "lambda": str(lam), "re": str(c.re), "im": str(c.im)}
        for (k, lam), c in f.items()
    ]


def _resolvent_report(formats):
    """The report text of ``halfline --subcheck resolvent`` for a solution u
    in the tree of ``formats``: its payload written by ``formats.dumps``."""

    def report(u):
        payload = {"solution": u, "resolvent_identity_exact": True, "trace_zero": True}
        return formats.dumps(payload)

    return report


def halfline_timings(terms: int, module=hl) -> dict:
    rnd = random.Random(SEED + terms)
    f = _random_function(rnd, terms, module)
    g = _random_function(rnd, terms, module)
    formats = importlib.import_module(module.__package__ + ".formats")
    records = _records(f)
    u = module.resolvent_solve(f)
    if not _resolvent_check(u, f):
        raise RuntimeError("the resolvent solution fails its own check")
    report = _resolvent_report(formats)
    if report(u) != fmt.dumps(json.loads(report(u))):
        raise RuntimeError("the resolvent report is not json's bytes")
    return {
        "halfline.inner_s": _best(module.inner, f, g),
        "halfline.derivative_s": _best(module.ExpPoly.derivative, f),
        "halfline.green_identity_s": _best(module.green_identity, f, g),
        "halfline.resolvent_solve_s": _best(module.resolvent_solve, f),
        "halfline.resolvent_check_s": _best(_resolvent_check, u, f),
        "halfline.parse_s": _best(formats.exppoly_from_json, records),
        "halfline.report_s": _best(report, u),
    }


def _coprime_function(module=hl):
    """t^32 and t^31 (alternating) times exp(-lam t), with lam = (p + 1 + i)/p
    for the i-th of the 60 largest primes p below 10^6: rate denominators
    at the cap and pairwise coprime, as an ``ExpPoly`` of ``module``."""
    primes = []
    m = 10**6 - 1
    while len(primes) < 60:
        if all(m % d for d in range(2, int(m**0.5) + 1)):
            primes.append(m)
        m -= 1
    return module.ExpPoly(
        {
            (32 - i % 2, Fraction(p + 1 + i, p)): module.RationalComplex(1)
            for i, p in enumerate(primes)
        }
    )


def coprime_timing(module=hl) -> dict:
    """``green_identity(f, f)`` on ``_coprime_function``: one timed call,
    since a tree that adds unreduced rate-sum fractions takes seconds."""
    f = _coprime_function(module)
    start = time.perf_counter()
    lhs, rhs = module.green_identity(f, f)
    elapsed = time.perf_counter() - start
    if lhs != rhs:
        raise RuntimeError("the Green identity fails on the coprime-rate input")
    return {"halfline.green_coprime_s": float(f"{elapsed:.4g}")}


def baseline_halfline(src: str):
    """The ``halfline`` module of the source tree ``src``, imported under the
    package name ``skewext_baseline`` so that it sits beside this tree's."""
    package = Path(src) / "skewext"
    spec = importlib.util.spec_from_file_location(
        "skewext_baseline", package / "__init__.py",
        submodule_search_locations=[str(package)],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["skewext_baseline"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("skewext_baseline.halfline")


def _halfline_files(directory: str, terms: int) -> dict:
    """Function files for the half-line CLI probes: a pair of ``terms``-term
    functions for ``green``, the first of them for ``resolvent`` and it made
    trace-zero for ``dissipative``."""
    rnd = random.Random(SEED + terms)
    f, g = _random_function(rnd, terms), _random_function(rnd, terms)
    f0 = f - hl.exp_decay(1).scale(f.eval0())
    files = {"green": {"f": f, "g": g}, "resolvent": f, "dissipative": f0}
    paths = {}
    for subcheck, obj in files.items():
        paths[subcheck] = os.path.join(directory, f"{subcheck}{terms}.json")
        with open(paths[subcheck], "w", encoding="utf-8") as fh:
            fh.write(fmt.dumps(obj))
    return paths


# ``import skewext.cli`` plus the module the relation commands load
NUMERIC_IMPORT = "import skewext.cli; import skewext.relation_commands"


def cli_timings(trees: dict) -> dict:
    """Median wall time of each CLI probe per source tree; the trees take
    turns, in alternating order, so that load on the machine falls on both
    alike."""
    cli = ["-m", "skewext.cli"]
    times = {label: {} for label in trees}

    def wall(name, argv, cwd):
        for r in range(REPEAT):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for label in order:
                env = dict(os.environ, PYTHONPATH=trees[label])
                start = time.perf_counter()
                subprocess.run(
                    [sys.executable, *argv], cwd=cwd, env=env, check=True,
                    stdout=subprocess.DEVNULL,
                )
                times[label].setdefault(name, []).append(time.perf_counter() - start)

    with tempfile.TemporaryDirectory() as tmp:
        wall("import_s", ["-c", "import skewext.cli"], tmp)
        wall("import_numeric_s", ["-c", NUMERIC_IMPORT], tmp)
        wall("halfline_deficiency_s", [*cli, "halfline", "--subcheck", "deficiency"], tmp)
        for count in (20, 200):
            argv = [*cli, "sweep", "--count", str(count)]
            wall(f"sweep_count_{count}_s", argv, tmp)
        for n in (64, 128):
            path = f"rel{n}.json"
            generate = ["generate", "--n", str(n), "--k", str(n // 2)]
            generate += ["--seed", str(SEED), "--out-relation", path]
            subprocess.run(
                [sys.executable, *cli, *generate], cwd=tmp, check=True,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                stdout=subprocess.DEVNULL,
            )
            wall(f"canonical_n{n}_s", [*cli, "canonical", "--input", path], tmp)
        terms = HALFLINE_TERMS[-1]
        for subcheck, path in _halfline_files(tmp, terms).items():
            argv = [*cli, "halfline", "--subcheck", subcheck, "--input", path]
            wall(f"halfline_{subcheck}_terms{terms}_s", argv, tmp)
    return {
        label: {name: _median(ts) for name, ts in probes.items()}
        for label, probes in times.items()
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1] for line in fh if "model name" in line]
        cpu = models[0].strip() if models else cpu
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--baseline-src", help="source tree for baseline CLI timings")
    args = parser.parse_args(argv)
    record = {
        "machine": machine(),
        "method": {
            "repeat": REPEAT,
            "in_process": "best of repeat perf_counter wall times after one "
            "warm-up call, BLAS on one thread, inputs built outside the timer",
            "cli": "median of repeat fresh `python3 -m skewext.cli` processes, "
            "import included, BLAS on one thread; with a baseline tree the two "
            "trees take turns in alternating order; import_s imports "
            "skewext.cli, import_numeric_s that and the relation-command "
            "module (numpy and the numeric substrate), and "
            "halfline_deficiency_s reads no input, so it is start-up alone",
            "relations": "relation.random_skew_symmetric(n, n // 2, 7)",
            "report": "the canonical payload: system_to_json plus "
            "relation_to_json of the canonical maximal dissipative extension; "
            "report_encode_dumps_s is formats.dumps; array_write_s is "
            "formats._array_to_json of the payload's largest array at its "
            "report depth 3",
            "decode": "decode_matrix_from_json_s is formats.matrix_from_json "
            "on the generators of the relation file; relation_from_json_s "
            "adds the span; relation_load_s is formats._load_numeric_json "
            "(file read, nesting check, orjson parse, sha256 digest) of the "
            "relation file generate writes, of relation_file_bytes bytes",
            "halfline_functions": "seeded random terms with distinct (degree, "
            "rate) keys, degrees 0..8, rates p/q with p in 1..12, q in 1..4; "
            "the CLI halfline probes read such a pair (green), its first "
            "function (resolvent) and that function made trace-zero "
            "(dissipative)",
            "halfline_ops": "parse_s is formats.exppoly_from_json of the first "
            "function's term list; resolvent_check_s is the identity check of "
            "the resolvent subcheck on that function and its resolvent_solve "
            "solution; report_s is formats.dumps of that subcheck's payload "
            "for the solution; green_coprime_s is one timed "
            "green_identity(f, f) call, with no warm-up, on 60 terms t^32 and "
            "t^31 (alternating) times exp(-lam t), lam = (p + 1 + i)/p for the "
            "i-th of the 60 largest primes p below 10^6",
        },
        "layers": {f"n={n}": layer_timings(n) for n in SIZES},
    }
    trees = {"cli": str(ROOT / "src")}
    modules = {"halfline": hl}
    if args.baseline_src:
        trees["cli_baseline"] = str(Path(args.baseline_src).resolve())
        modules["halfline_baseline"] = baseline_halfline(trees["cli_baseline"])
    # the two trees take turns at each size, so that a slow spell of the
    # machine falls on both alike
    for t in HALFLINE_TERMS:
        for label, module in modules.items():
            record.setdefault(label, {})[f"terms={t}"] = halfline_timings(t, module)
    for label, module in modules.items():
        record[label]["coprime"] = coprime_timing(module)
    record.update(cli_timings(trees))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(fmt.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
