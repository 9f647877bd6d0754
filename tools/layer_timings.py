"""Per-layer and end-to-end timings of skewext, written as one JSON file.

Run from the root of a checkout (the package need not be installed):

    python3 tools/layer_timings.py --out BENCH.json [--baseline-src OTHER/src]

BLAS is pinned to one thread before numpy loads.  Every in-process figure
is the best of ``REPEAT`` wall-clock runs (``time.perf_counter``) after
one untimed warm-up call; inputs are built outside the timed region.  The
CLI figures are the best wall time of ``REPEAT`` fresh interpreters
running ``python3 -m skewext.cli``, so they include the import; the best
of several, like the in-process figures, since the median of fresh
interpreters moved by up to 30 % between trees with the same imports.  The layer
figures of each size are taken in ``LAYER_ROUNDS`` child interpreters that
import ``skewext`` from the tree they time, and each time figure is the
best of them.  With ``--baseline-src`` every figure is also taken on that
source tree, for a before/after comparison on the same machine: the CLI
figures with that tree on ``PYTHONPATH`` (``cli_baseline``), the layer
figures at every size (``layers_baseline``) and the half-line figures with
that tree's ``halfline`` and ``formats`` modules (``halfline_baseline``).
The two trees take turns, in alternating order: at each CLI probe and
repeat, at each round of each size of the layers, and at each half-line
figure of each size, so that a slow spell of the machine falls on both
alike and does not read as a change.  Each positive layer figure also gets
its local exponent between consecutive sizes (``layer_exponents``), so the
growth of every layer in n is read off the file.

Relations are ``relation.random_skew_symmetric(n, n // 2, seed)``, so the
deficiency indices are equal and every triplet construction applies.
``subspace.complement_s`` times the complement of a random 2n×n complex
matrix, which has full column rank: the complete-QR complement, the one
complement routine.  On a tree whose ``complement`` was a full SVD with a
rank cut, the same call times that SVD.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
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
from skewext import cli  # noqa: E402
from skewext import extensions as ext  # noqa: E402
from skewext import formats as fmt  # noqa: E402
from skewext import halfline as hl  # noqa: E402
from skewext import linalg  # noqa: E402
from skewext import relation as rel  # noqa: E402
from skewext import relation_commands  # noqa: E402
from skewext import subspace as sub  # noqa: E402
from skewext.sampling import random_unitary  # noqa: E402

SIZES = (4, 16, 64, 128, 256)
HALFLINE_TERMS = (10, 30, 60)
SEED = 7
REPEAT = 7
#: child interpreters per tree and size; each time figure is the best of them
LAYER_ROUNDS = 3


def _best(fn, *args):
    fn(*args)
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return float(f"{min(times):.4g}")


def _best_fresh(make, fn):
    """Like ``_best``, but every call of ``fn`` gets a new input from
    ``make()``, built outside the timed region, so that no call reads what an
    earlier one cached on its input."""
    fn(make())
    times = []
    for _ in range(REPEAT):
        arg = make()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return float(f"{min(times):.4g}")


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
    # the two graphs the adjoint formula compares
    g_neg, ghat1, _ = bd._canonical_blocks(s)
    formula_lhs = rel.adjoint(dissip).graph
    formula_rhs = rel.negate(
        rel.Relation(n, sub.Subspace(2 * n, np.concatenate([g_neg, ghat1], axis=1)))
    ).graph
    # the check both gap callers make: adjoint_gap_within, or on a tree
    # without it, adjoint_gap held against the tolerance
    gap_within = getattr(rel, "adjoint_gap_within", None) or (
        lambda t, basis, tol: rel.adjoint_gap(t, basis) <= tol
    )
    # the matrix whose spectral norm is the gap canonical_system checks
    x, xp = h.blocks()
    top, bottom = s.adjoint_graph.basis[:n], s.adjoint_graph.basis[n:]
    gap = x.conj().T @ bottom - xp.conj().T @ top
    relation_text = fmt.dumps(fmt.relation_to_json(h))
    relation_obj = json.loads(relation_text)
    gens = relation_obj["graph_generators"]
    b = _best
    # a tree without the piece writer is timed on the whole text
    report_parts = getattr(fmt, "_report_parts", fmt.dumps)

    def fresh_relation():
        return rel.Relation(n, h.graph)

    def fresh_system():
        return bd.canonical_system(h)

    def fresh_extension():
        return rel.Relation(n, dissip.graph)

    def extension_checks(t):
        # the two checks ``canonical`` makes on its extension
        return rel.is_dissipative(t), ext.is_maximal_dissipative(t)

    with tempfile.TemporaryDirectory() as tmp:
        relation_path = os.path.join(tmp, "relation.json")
        with open(relation_path, "w", encoding="utf-8") as fh:
            fh.write(relation_text)
        relation_load_s = b(fmt._load_numeric_json, relation_path)
        # the canonical report of that file, written to a file as the CLI
        # writes it; the payload is built outside the timer
        report_path = os.path.join(tmp, "report.json")
        argv = ["canonical", "--input", relation_path, "--out", report_path]
        args = cli.build_parser().parse_args(argv)
        echo, digest, status, payload = relation_commands.cmd_canonical(args)
        emit_file_s = b(cli._emit, args, echo, digest, status, payload)
    return {
        "indices": [s.g1.dim, s.g2.dim],
        "subspace.span_matrix_s": b(sub.span_matrix, a),
        "subspace.complement_s": b(sub.complement, a),
        "subspace.distance_at_most_s": b(
            sub.distance_at_most, formula_lhs, formula_rhs, s.report.tol
        ),
        "subspace.contains_subspace_s": b(
            sub.contains_subspace, s.adjoint_graph, h.graph
        ),
        "relation.adjoint_s": b(rel.adjoint, h),
        "relation.kernel_s": b(rel.kernel, h),
        "relation.mul_part_s": b(rel.mul_part, h),
        "relation.domain_s": b(rel.domain, h),
        # a relation caches its deficiency spaces, so both run on new ones
        "relation.deficiency_s": _best_fresh(fresh_relation, rel.deficiency),
        "boundary.canonical_system_s": _best_fresh(
            fresh_relation, bd.canonical_system
        ),
        "boundary.verify_system_s": b(bd.verify_system, s),
        "boundary.verify_triplet_s": b(bd.verify_triplet, t),
        "linalg.matrix_2norm_s": b(linalg.matrix_2norm, gap),
        "relation.adjoint_gap_s": b(
            gap_within, h, s.adjoint_graph.basis, s.report.tol
        ),
        "linalg.is_unitary_s": b(linalg.is_unitary, l),
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
        # a system caches its canonical extension, so both run on new ones
        "extensions.canonical_max_dissipative_s": _best_fresh(
            fresh_system, ext.canonical_max_dissipative
        ),
        "extensions.adjoint_formula_check_s": _best_fresh(
            fresh_system, ext.adjoint_formula_check
        ),
        "extensions.extension_checks_s": _best_fresh(fresh_extension, extension_checks),
        "relation.is_dissipative_s": _best_fresh(fresh_extension, rel.is_dissipative),
        "extensions.is_maximal_dissipative_s": _best_fresh(
            fresh_extension, ext.is_maximal_dissipative
        ),
        "formats.report_bytes": len(fmt.dumps(payload)),
        "formats.report_encode_dumps_s": b(fmt.dumps, payload),
        "formats.report_parts_s": b(report_parts, payload),
        "cli.emit_file_s": emit_file_s,
        "formats.relation_file_bytes": len(relation_text),
        "formats.relation_load_s": relation_load_s,
        "formats.relation_pairs": sum(len(g) for g in gens),
        "formats.decode_matrix_from_json_s": b(fmt.matrix_from_json, gens),
        "formats.relation_from_json_s": b(fmt.relation_from_json, relation_obj),
    }


def local_exponents(layers: dict) -> dict:
    """The local exponent log(v2 / v1) / log(n2 / n1) of each positive
    figure of ``layers`` between consecutive ``SIZES`` n1 < n2: the slope
    of the log-log line through the two points, so 3 means cubic there."""
    out = {}
    for n1, n2 in zip(SIZES, SIZES[1:]):
        small, large = layers[f"n={n1}"], layers[f"n={n2}"]
        out[f"n={n1}..{n2}"] = {
            name: float(f"{math.log(large[name] / v) / math.log(n2 / n1):.3g}")
            for name, v in small.items()
            if isinstance(v, (int, float)) and v > 0 and large[name] > 0
        }
    return out


def _best_of_rounds(runs: list) -> dict:
    """One ``layer_timings`` record from several of one tree and size: the
    least of each time figure (a name ending in ``_s``), and the first
    record's value of each other figure, which all records share."""
    return {
        name: min(run[name] for run in runs) if name.endswith("_s") else value
        for name, value in runs[0].items()
    }


def tree_layers(src: str, n: int) -> dict:
    """``layer_timings(n)`` on the source tree ``src``, in a child
    interpreter that imports ``skewext`` from ``src`` before it runs this
    file, so that every module the timings use comes from that tree."""
    code = (
        "import json, runpy, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import skewext\n"
        f"tool = runpy.run_path({str(Path(__file__).resolve())!r})\n"
        f"print(json.dumps(tool['layer_timings']({n})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    )
    return json.loads(done.stdout)


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


def _dissipative_kernel(module):
    """Re <H f, f> from (H f, f) as ``halfline --subcheck dissipative``
    computes it in the tree of ``module``: by ``inner_sum_re``, or, in a tree
    without it, as the real part of ``inner_sum`` on the one pair."""
    kernel = getattr(module, "inner_sum_re", None)
    if kernel is None:
        return lambda image, f: module.inner_sum(((image, f),)).re
    return lambda image, f: kernel(((image, f),))


def _trace_zero(f, module=hl):
    """f minus f(0) exp(-t): the function made trace-zero as the
    ``dissipative`` probes make it."""
    return f - module.exp_decay(1).scale(f.eval0())


def halfline_ops(terms: int, module=hl) -> dict:
    """The half-line figures at ``terms`` terms in the tree of ``module``:
    each name with the call it times and that call's arguments."""
    rnd = random.Random(SEED + terms)
    f = _random_function(rnd, terms, module)
    g = _random_function(rnd, terms, module)
    f0 = _trace_zero(f, module)
    image = module.canonical_extension_apply(f0)
    formats = importlib.import_module(module.__package__ + ".formats")
    records = _records(f)
    u = module.resolvent_solve(f)
    if not _resolvent_check(u, f):
        raise RuntimeError("the resolvent solution fails its own check")
    report = _resolvent_report(formats)
    if report(u) != fmt.dumps(json.loads(report(u))):
        raise RuntimeError("the resolvent report is not json's bytes")
    return {
        "halfline.inner_s": (module.inner_sum, ((f, g),)),
        "halfline.derivative_s": (module.ExpPoly.derivative, f),
        "halfline.green_identity_s": (module.green_identity, f, g),
        "halfline.dissipative_s": (_dissipative_kernel(module), image, f0),
        "halfline.resolvent_solve_s": (module.resolvent_solve, f),
        "halfline.resolvent_check_s": (_resolvent_check, u, f),
        "halfline.parse_s": (formats.exppoly_from_json, records),
        "halfline.report_s": (report, u),
    }


def _take_turns(calls: dict, timer) -> dict:
    """``timer(fn, *args)`` of each figure of each tree in ``calls``, a dict
    label -> figure name -> (fn, *args); the trees take turns at each
    figure, in alternating order, so that a slow spell of the machine falls
    on both alike."""
    out = {label: {} for label in calls}
    for i, name in enumerate(next(iter(calls.values()))):
        order = list(calls) if i % 2 == 0 else list(reversed(calls))
        for label in order:
            fn, *args = calls[label][name]
            out[label][name] = timer(fn, *args)
    return out


def halfline_timings(terms: int, modules: dict) -> dict:
    """The ``halfline_ops`` figures at ``terms`` terms for each labelled
    ``halfline`` module of ``modules``, the trees taking turns."""
    calls = {label: halfline_ops(terms, module) for label, module in modules.items()}
    return _take_turns(calls, _best)


def _coprime_rates(count: int) -> list:
    """lam = (p + 1 + i)/p for the i-th of the ``count`` largest primes p
    below 10^6: rate denominators at the cap and pairwise coprime."""
    primes = []
    m = 10**6 - 1
    while len(primes) < count:
        if all(m % d for d in range(2, int(m**0.5) + 1)):
            primes.append(m)
        m -= 1
    return [Fraction(p + 1 + i, p) for i, p in enumerate(primes)]


def _coprime_function(module=hl):
    """t^32 and t^31 (alternating) times exp(-lam t) at the 60
    ``_coprime_rates``, as an ``ExpPoly`` of ``module``."""
    return module.ExpPoly(
        {
            (32 - i % 2, lam): module.RationalComplex(1)
            for i, lam in enumerate(_coprime_rates(60))
        }
    )


def _coprime_trace_zero_function(module=hl):
    """(1 + (i + 1) i) t^(1 + i % 8) exp(-lam t) at the 30 ``_coprime_rates``:
    trace-zero, with complex coefficients, so that Im <H f, f> has a long
    denominator while Re <H f, f> = 0."""
    return module.ExpPoly(
        {
            (1 + i % 8, lam): module.RationalComplex(1, i + 1)
            for i, lam in enumerate(_coprime_rates(30))
        }
    )


def _timed_once(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, float(f"{time.perf_counter() - start:.4g}")


def coprime_timings(modules: dict) -> dict:
    """``green_identity(f, f)`` on ``_coprime_function``, and the
    ``dissipative`` kernel on ``_coprime_trace_zero_function``, for each
    labelled ``halfline`` module of ``modules``: one timed call each, since a
    tree that adds unreduced rate-sum fractions takes seconds on the first."""
    calls = {}
    for label, module in modules.items():
        f = _coprime_function(module)
        f0 = _coprime_trace_zero_function(module)
        image = module.canonical_extension_apply(f0)
        calls[label] = {
            "halfline.green_coprime_s": (module.green_identity, f, f),
            "halfline.dissipative_coprime_s": (_dissipative_kernel(module), image, f0),
        }
    out = {}
    for label, figures in _take_turns(calls, _timed_once).items():
        (lhs, rhs), green_s = figures["halfline.green_coprime_s"]
        if lhs != rhs:
            raise RuntimeError("the Green identity fails on the coprime-rate input")
        value, dissipative_s = figures["halfline.dissipative_coprime_s"]
        if value != 0:
            raise RuntimeError("Re <Hf, f> is not 0 on the coprime-rate input")
        out[label] = {
            "halfline.green_coprime_s": green_s,
            "halfline.dissipative_coprime_s": dissipative_s,
        }
    return out


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
    f0 = _trace_zero(f)
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
    """Best wall time of each CLI probe per source tree; the trees take
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
        label: {name: float(f"{min(ts):.4g}") for name, ts in probes.items()}
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
            "cli": "best of repeat fresh `python3 -m skewext.cli` processes, "
            "import included, BLAS on one thread; with a baseline tree the two "
            "trees take turns in alternating order; import_s imports "
            "skewext.cli, import_numeric_s that and the relation-command "
            "module (numpy and the numeric substrate), and "
            "halfline_deficiency_s reads no input, so it is start-up alone",
            "relations": "relation.random_skew_symmetric(n, n // 2, 7)",
            "fresh_systems": "canonical_max_dissipative_s and "
            "adjoint_formula_check_s each run on a canonical system built "
            "outside the timer for that run, since a system caches its "
            "canonical extension; deficiency_s and canonical_system_s each "
            "run on a new relation over the same graph, since a relation "
            "caches its deficiency spaces; extension_checks_s (is_dissipative "
            "and is_maximal_dissipative, the two checks canonical makes on "
            "its extension) runs on a new relation over the graph of the "
            "canonical extension, since a relation caches the bound and the "
            "spectrum of its form",
            "verify": "verify_system_s is boundary.verify_system on the "
            "canonical system: the form check and the rank of F; "
            "verify_triplet_s is boundary.verify_triplet on its triplet with "
            "L0 = I (both real where the tree keeps real maps real)",
            "norm": "distance_at_most_s is subspace.distance_at_most of "
            "Graph(H*) for the canonical extension H and the graph of the "
            "adjoint formula, at the system's tolerance; "
            "matrix_2norm_s is linalg.matrix_2norm of the "
            "dim Graph(H0) x (2n - dim Graph(H0)) matrix (J B)^H R whose norm "
            "is the gap canonical_system checks; adjoint_gap_s is the check "
            "canonical_system and adjoint_formula_check make on it, "
            "relation.adjoint_gap_within at the system's tolerance (that "
            "product held against tol by its Frobenius norm, then its spectral "
            "norm if undecided), or relation.adjoint_gap <= tol on a tree "
            "without it; is_unitary_s is linalg.is_unitary of a random "
            "complex unitary of size n // 2; is_dissipative_s and "
            "is_maximal_dissipative_s each run on a new relation over the "
            "graph of the canonical extension, so they include what the "
            "relation computes once: its Gershgorin bound of Omega's largest "
            "eigenvalue, or on a tree without it, its eigensolve of Omega",
            "layer_exponents": "for each pair of consecutive sizes n1 < n2, "
            "log(v2 / v1) / log(n2 / n1) of each positive layer figure: the "
            "local slope on a log-log scale, 3 for cubic growth",
            "layers": f"each size's layers taken in {LAYER_ROUNDS} child "
            "interpreters that import skewext from the tree they time; each "
            "time figure is the best of them",
            "layers_baseline": "the layers of the --baseline-src tree at every "
            "size, taken as those of this tree are; the two trees take turns "
            "at each round of each size, in alternating order",
            "halfline_baseline": "the half-line figures with the "
            "--baseline-src tree's halfline and formats modules; at each size "
            "the two trees take turns at each figure, in alternating order",
            "report": "the payload of `canonical` on the relation file "
            "generate writes, as relation_commands.cmd_canonical builds it; "
            "report_bytes is the length of its formats.dumps text; "
            "report_encode_dumps_s is formats.dumps; report_parts_s is "
            "formats._report_parts, the pieces cli._emit writes (formats.dumps "
            "on a tree without it); cli.emit_file_s is cli._emit writing the "
            "whole report to a file with --out",
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
            "halfline_ops": "inner_s is inner_sum on the one pair (f, g) of "
            "functions; parse_s is formats.exppoly_from_json of the first "
            "function's term list; resolvent_check_s is the identity check of "
            "the resolvent subcheck on that function and its resolvent_solve "
            "solution; report_s is formats.dumps of that subcheck's payload "
            "for the solution; dissipative_s is Re <H f0, f0> as the "
            "dissipative subcheck computes it in each tree (inner_sum_re, or "
            "the real part of inner_sum where a tree lacks it), f0 the first "
            "function made trace-zero; green_coprime_s is one timed "
            "green_identity(f, f) call, with no warm-up, on 60 terms t^32 and "
            "t^31 (alternating) times exp(-lam t), lam = (p + 1 + i)/p for the "
            "i-th of the 60 largest primes p below 10^6; dissipative_coprime_s "
            "is one timed dissipative kernel call, with no warm-up, on 30 "
            "terms (1 + (i + 1) i) t^(1 + i % 8) exp(-lam t) at the first 30 "
            "of those rates",
        },
    }
    trees = {"cli": str(ROOT / "src")}
    modules = {"halfline": hl}
    if args.baseline_src:
        trees["cli_baseline"] = str(Path(args.baseline_src).resolve())
        modules["halfline_baseline"] = baseline_halfline(trees["cli_baseline"])
    # the trees take turns at each size and each half-line figure, so that a
    # slow spell of the machine falls on both alike
    layer_keys = {"cli": "layers", "cli_baseline": "layers_baseline"}
    for i, n in enumerate(SIZES):
        rounds = {label: [] for label in trees}
        for r in range(LAYER_ROUNDS):
            order = list(trees) if (i + r) % 2 == 0 else list(reversed(trees))
            for label in order:
                rounds[label].append(tree_layers(trees[label], n))
        for label, runs in rounds.items():
            layers = record.setdefault(layer_keys[label], {})
            layers[f"n={n}"] = _best_of_rounds(runs)
    record["layer_exponents"] = local_exponents(record["layers"])
    for t in HALFLINE_TERMS:
        for label, figures in halfline_timings(t, modules).items():
            record.setdefault(label, {})[f"terms={t}"] = figures
    for label, figures in coprime_timings(modules).items():
        record[label]["coprime"] = figures
    record.update(cli_timings(trees))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(fmt.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
