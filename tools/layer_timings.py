"""Per-layer and end-to-end timings of skewext, written as one JSON file.

Run from the root of a checkout (the package need not be installed):

    python3 tools/layer_timings.py --out BENCH.json [--baseline-src OTHER/src]

BLAS is pinned to one thread before numpy loads.  Every in-process figure,
the layers of each size (``layer_timings``) and the half-line figures
(``halfline_figures``), is taken in ``LAYER_ROUNDS`` child interpreters
per tree that import ``skewext`` from the tree they time (``tree_layers``),
and each time figure is the best of its rounds.  Within a child, a figure
is the best of ``REPEAT`` wall-clock runs (``time.perf_counter``) after
one untimed warm-up call, with its inputs built outside the timed region.
The CLI figures are the best wall time of ``REPEAT`` fresh interpreters
running ``python3 -m skewext.cli``, so they include the import; the best
of several, like the in-process figures, since the median of fresh
interpreters moved by up to 30 % between trees with the same imports.
They run from a copy of each tree's package without ``__pycache__`` and
write no bytecode, so each compiles the package, and a cache left in one
tree does not make that tree read faster.
With ``--baseline-src`` every figure is also taken on that source tree,
for a before/after comparison on the same machine (``layers_baseline``,
``halfline_baseline``, ``cli_baseline``).  The two trees take turns, in
alternating order, at each round of each set of in-process figures and at
each CLI probe and repeat, so that a slow spell of the machine falls on
both alike and does not read as a change; ``cli_pairs`` holds the ratio
of the two trees' times in each such pair of CLI runs, with their median
and range, so a reader sees which CLI figures can resolve a change.  Each
positive layer figure also gets its local exponent between consecutive
sizes (``layer_exponents``), so the growth of every layer in n is read
off the file.

Relations are ``relation.random_skew_symmetric(n, n // 2, seed)``, so the
deficiency indices are equal and every triplet construction applies.
``subspace.complement_s`` times the complement of a random 2n×n complex
matrix, which has full column rank.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
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
#: the n of the CLI ``canonical`` probes, each on a relation with k = n // 2
CLI_CANONICAL_SIZES = (64, 256)
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
    # the matrix whose spectral norm is the gap canonical_system checks
    x, xp = h.blocks()
    top, bottom = s.adjoint_graph.basis[:n], s.adjoint_graph.basis[n:]
    gap = x.conj().T @ bottom - xp.conj().T @ top
    relation_text = fmt.dumps(fmt.relation_to_json(h))
    relation_obj = json.loads(relation_text)
    gens = relation_obj["graph_generators"]
    b = _best

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
            rel.adjoint_gap_within, h, s.adjoint_graph.basis, s.report.tol
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
        "formats.report_parts_s": b(fmt._report_parts, payload),
        "cli.emit_file_s": emit_file_s,
        "formats.relation_file_bytes": len(relation_text),
        "formats.relation_load_s": relation_load_s,
        "formats.relation_pairs": h.graph.basis.size,
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
    """One record from several child runs of one tree: the least of each
    time figure (a name ending in ``_s``), at any depth of nested sections,
    and the first record's value of each other figure, which all records
    share."""
    out = {}
    for name, value in runs[0].items():
        if isinstance(value, dict):
            out[name] = _best_of_rounds([run[name] for run in runs])
        elif name.endswith("_s"):
            out[name] = min(run[name] for run in runs)
        else:
            out[name] = value
    return out


def tree_layers(src: str, name: str, *args) -> dict:
    """The record ``name(*args)`` of this file returns, taken on the source
    tree ``src`` in a child interpreter that imports ``skewext`` from
    ``src`` before it runs this file, so that every module the figures use
    comes from that tree.  A failing child raises ``RuntimeError`` with its
    stderr."""
    code = (
        "import json, runpy, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import skewext\n"
        f"tool = runpy.run_path({str(Path(__file__).resolve())!r})\n"
        f"print(json.dumps(tool[{name!r}](*{list(args)!r})))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{name}{args} failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def tree_rounds(trees: dict, turn: int, name: str, *args) -> dict:
    """``tree_layers(src, name, *args)`` on each labelled tree of ``trees``
    in ``LAYER_ROUNDS`` rounds, each figure the best of its rounds; the trees
    take turns at each round, in an order that alternates from round to
    round and, by ``turn``, from one set of figures to the next."""
    rounds = {label: [] for label in trees}
    for r in range(LAYER_ROUNDS):
        order = list(trees) if (turn + r) % 2 == 0 else list(reversed(trees))
        for label in order:
            rounds[label].append(tree_layers(trees[label], name, *args))
    return {label: _best_of_rounds(runs) for label, runs in rounds.items()}


def _random_function(rnd: random.Random, count: int):
    """``count`` terms c t^k e^(-lam t) with distinct (k, lam), k in 0..8,
    lam = p/q with p in 1..12 and q in 1..4, and Re c > 0."""
    terms = {}
    while len(terms) < count:
        key = (rnd.randint(0, 8), Fraction(rnd.randint(1, 12), rnd.randint(1, 4)))
        terms[key] = hl.RationalComplex(
            Fraction(rnd.randint(1, 9), rnd.randint(1, 6)),
            Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)),
        )
    return hl.ExpPoly(terms)


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


def _resolvent_report(u) -> str:
    """The report text of ``halfline --subcheck resolvent`` for a solution
    u: its payload written by ``formats.dumps``."""
    payload = {"solution": u, "resolvent_identity_exact": True, "trace_zero": True}
    return fmt.dumps(payload)


def _re_form(image, f):
    """Re <H f, f> from (H f, f), as ``halfline --subcheck dissipative``
    computes it."""
    return hl.inner_sum_re(((image, f),))


def _trace_zero(f):
    """f minus f(0) exp(-t): the function made trace-zero as the
    ``dissipative`` probes make it."""
    return f - hl.exp_decay(1).scale(f.eval0())


def halfline_ops(terms: int) -> dict:
    """The half-line figures at ``terms`` terms: each name with the call it
    times and that call's arguments."""
    rnd = random.Random(SEED + terms)
    f = _random_function(rnd, terms)
    g = _random_function(rnd, terms)
    f0 = _trace_zero(f)
    image = hl.canonical_extension_apply(f0)
    u = hl.resolvent_solve(f)
    if not _resolvent_check(u, f):
        raise RuntimeError("the resolvent solution fails its own check")
    text = _resolvent_report(u)
    if text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
        raise RuntimeError("the resolvent report is not json's bytes")
    return {
        "halfline.inner_s": (hl.inner_sum, ((f, g),)),
        "halfline.derivative_s": (hl.ExpPoly.derivative, f),
        "halfline.green_identity_s": (hl.green_identity, f, g),
        "halfline.dissipative_s": (_re_form, image, f0),
        "halfline.resolvent_solve_s": (hl.resolvent_solve, f),
        "halfline.resolvent_check_s": (_resolvent_check, u, f),
        "halfline.parse_s": (fmt.exppoly_from_json, _records(f)),
        "halfline.report_s": (_resolvent_report, u),
    }


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


def _coprime_function():
    """t^32 and t^31 (alternating) times exp(-lam t) at the 60
    ``_coprime_rates``."""
    return hl.ExpPoly(
        {
            (32 - i % 2, lam): hl.RationalComplex(1)
            for i, lam in enumerate(_coprime_rates(60))
        }
    )


def _coprime_trace_zero_function():
    """(1 + (i + 1) i) t^(1 + i % 8) exp(-lam t) at the 30 ``_coprime_rates``:
    trace-zero, with complex coefficients, so that Im <H f, f> has a long
    denominator while Re <H f, f> = 0."""
    return hl.ExpPoly(
        {
            (1 + i % 8, lam): hl.RationalComplex(1, i + 1)
            for i, lam in enumerate(_coprime_rates(30))
        }
    )


def _timed_once(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, float(f"{time.perf_counter() - start:.4g}")


def coprime_timings() -> dict:
    """``green_identity(f, f)`` on ``_coprime_function``, and the
    ``dissipative`` kernel on ``_coprime_trace_zero_function``: one timed
    call each, since a tree that adds unreduced rate-sum fractions takes
    seconds on the first."""
    f = _coprime_function()
    f0 = _coprime_trace_zero_function()
    image = hl.canonical_extension_apply(f0)
    (lhs, rhs), green_s = _timed_once(hl.green_identity, f, f)
    if lhs != rhs:
        raise RuntimeError("the Green identity fails on the coprime-rate input")
    value, dissipative_s = _timed_once(_re_form, image, f0)
    if value != 0:
        raise RuntimeError("Re <Hf, f> is not 0 on the coprime-rate input")
    return {
        "halfline.green_coprime_s": green_s,
        "halfline.dissipative_coprime_s": dissipative_s,
    }


def halfline_figures() -> dict:
    """The half-line section of the file: the ``halfline_ops`` figures at
    each of ``HALFLINE_TERMS`` terms, each the best of ``REPEAT`` runs, and
    the ``coprime_timings``."""
    out = {
        f"terms={t}": {name: _best(*call) for name, call in halfline_ops(t).items()}
        for t in HALFLINE_TERMS
    }
    out["coprime"] = coprime_timings()
    return out


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
    alike.  Each tree's probes run from a copy of its ``skewext`` package
    without ``__pycache__``, with bytecode writing off, so that every probe
    compiles the package, whatever cache the tree holds."""
    cli = ["-m", "skewext.cli"]
    times = {label: {} for label in trees}
    envs = {}

    def wall(name, argv, cwd):
        for r in range(REPEAT):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for label in order:
                env = envs[label]
                start = time.perf_counter()
                subprocess.run(
                    [sys.executable, *argv], cwd=cwd, env=env, check=True,
                    stdout=subprocess.DEVNULL,
                )
                times[label].setdefault(name, []).append(time.perf_counter() - start)

    with tempfile.TemporaryDirectory() as tmp:
        for label, src in trees.items():
            copy = os.path.join(tmp, f"tree{label}")
            shutil.copytree(
                os.path.join(src, "skewext"), os.path.join(copy, "skewext"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            envs[label] = dict(
                os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1"
            )
        wall("import_s", ["-c", "import skewext.cli"], tmp)
        wall("import_numeric_s", ["-c", NUMERIC_IMPORT], tmp)
        wall("halfline_deficiency_s", [*cli, "halfline", "--subcheck", "deficiency"], tmp)
        for count in (20, 200):
            argv = [*cli, "sweep", "--count", str(count)]
            wall(f"sweep_count_{count}_s", argv, tmp)
        for n in CLI_CANONICAL_SIZES:
            # the list form, which every tree reads, of the relation
            # ``generate --n n --k n // 2 --seed SEED`` draws
            gens = rel.random_skew_symmetric(n, n // 2, SEED).graph.basis.T
            path = f"rel{n}.json"
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
                pairs = np.stack([gens.real, gens.imag], axis=-1).tolist()
                json.dump({"n": n, "graph_generators": pairs}, fh)
            wall(f"canonical_n{n}_s", [*cli, "canonical", "--input", path], tmp)
        terms = HALFLINE_TERMS[-1]
        for subcheck, path in _halfline_files(tmp, terms).items():
            argv = [*cli, "halfline", "--subcheck", subcheck, "--input", path]
            wall(f"halfline_{subcheck}_terms{terms}_s", argv, tmp)
    return times


def cli_pairs(times: dict) -> dict:
    """Each CLI probe's ratios of this tree's wall time to the baseline's,
    one per alternating pair of runs, with their median and range."""
    out = {}
    for name, ours in times[""].items():
        ratios = sorted(a / b for a, b in zip(ours, times["_baseline"][name]))
        out[name] = {
            "ratios": [float(f"{r:.4g}") for r in ratios],
            "median": float(f"{statistics.median(ratios):.4g}"),
            "range": [float(f"{ratios[0]:.4g}"), float(f"{ratios[-1]:.4g}")],
        }
    return out


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
    parser.add_argument("--baseline-src", help="source tree to take every figure on as a baseline")
    args = parser.parse_args(argv)
    record = {
        "machine": machine(),
        "method": {
            "repeat": REPEAT,
            "in_process": f"in each of {LAYER_ROUNDS} child interpreters per "
            "tree, the best of repeat perf_counter wall times after one warm-up "
            "call, BLAS on one thread, inputs built outside the timer; each "
            "time figure is the best of its rounds",
            "cli": "best of repeat fresh `python3 -m skewext.cli` processes, "
            "import included, BLAS on one thread; each tree's processes run "
            "from a copy of its skewext package without __pycache__ and with "
            "PYTHONDONTWRITEBYTECODE=1, so every process compiles the package; "
            "with a baseline tree the two trees take turns in alternating "
            "order; import_s imports "
            "skewext.cli, import_numeric_s that and the relation-command "
            "module (numpy and the numeric substrate), and "
            "halfline_deficiency_s reads no input, so it is start-up alone; "
            "canonical_n{n}_s runs canonical on the relation file, in the "
            "list form every tree reads, of random_skew_symmetric(n, n // 2, 7); "
            "cli_pairs holds this tree's time over the baseline's in each "
            "alternating pair of runs",
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
            "L0 = I (both real: F = [0 | I] and the triplet's maps)",
            "norm": "distance_at_most_s is subspace.distance_at_most of "
            "Graph(H*) for the canonical extension H and the graph of the "
            "adjoint formula, at the system's tolerance; "
            "matrix_2norm_s is linalg.matrix_2norm of the "
            "dim Graph(H0) x (2n - dim Graph(H0)) matrix (J B)^H R whose norm "
            "is the gap canonical_system checks; adjoint_gap_s is the check "
            "canonical_system and adjoint_formula_check make on it, "
            "relation.adjoint_gap_within at the system's tolerance (that "
            "product held against tol by its Frobenius norm, then its spectral "
            "norm if undecided); is_unitary_s is linalg.is_unitary of a random "
            "complex unitary of size n // 2; is_dissipative_s and "
            "is_maximal_dissipative_s each run on a new relation over the "
            "graph of the canonical extension, so they include what the "
            "relation computes once: its Gershgorin bound of Omega's largest "
            "eigenvalue, and its eigensolve of Omega where the bound does "
            "not decide",
            "layer_exponents": "for each pair of consecutive sizes n1 < n2, "
            "log(v2 / v1) / log(n2 / n1) of each positive layer figure: the "
            "local slope on a log-log scale, 3 for cubic growth",
            "layers": f"each size's layers taken in {LAYER_ROUNDS} child "
            "interpreters that import skewext from the tree they time; each "
            "time figure is the best of them",
            "layers_baseline": "the layers of the --baseline-src tree at every "
            "size, taken as those of this tree are; the two trees take turns "
            "at each round of each size, in alternating order",
            "halfline_baseline": "the half-line figures of the --baseline-src "
            f"tree, taken as those of this tree are, in {LAYER_ROUNDS} child "
            "interpreters per tree; the two trees take turns at each round, in "
            "alternating order",
            "report": "the payload of `canonical` on the relation file "
            "generate writes, as relation_commands.cmd_canonical builds it; "
            "report_bytes is the length of its formats.dumps text; "
            "report_encode_dumps_s is formats.dumps; report_parts_s is "
            "formats._report_parts, the pieces cli._emit writes; cli.emit_file_s is cli._emit writing the "
            "whole report to a file with --out",
            "decode": "decode_matrix_from_json_s is formats.matrix_from_json "
            "on the generators of the relation file each tree's generate "
            "writes (from schema 3 an array object, before it a list of rows "
            "of [re, im] pairs); relation_from_json_s "
            "adds the span; relation_load_s is formats._load_numeric_json "
            "(file read, nesting check, orjson parse, sha256 digest) of that "
            "file, of relation_file_bytes bytes; relation_pairs is the "
            "number of complex entries of its generators",
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
            "dissipative subcheck computes it (inner_sum_re), f0 the first "
            "function made trace-zero; green_coprime_s is one timed "
            "green_identity(f, f) call, with no warm-up, on 60 terms t^32 and "
            "t^31 (alternating) times exp(-lam t), lam = (p + 1 + i)/p for the "
            "i-th of the 60 largest primes p below 10^6; dissipative_coprime_s "
            "is one timed dissipative kernel call, with no warm-up, on 30 "
            "terms (1 + (i + 1) i) t^(1 + i % 8) exp(-lam t) at the first 30 "
            "of those rates",
        },
    }
    # labels are the suffixes of the record's keys: "layers", "layers_baseline"
    trees = {"": str(ROOT / "src")}
    if args.baseline_src:
        trees["_baseline"] = str(Path(args.baseline_src).resolve())
    for i, n in enumerate(SIZES):
        for label, layers in tree_rounds(trees, i, "layer_timings", n).items():
            record.setdefault("layers" + label, {})[f"n={n}"] = layers
    record["layer_exponents"] = local_exponents(record["layers"])
    for label, figures in tree_rounds(trees, len(SIZES), "halfline_figures").items():
        record["halfline" + label] = figures
    times = cli_timings(trees)
    for label, probes in times.items():
        record["cli" + label] = {
            name: float(f"{min(ts):.4g}") for name, ts in probes.items()
        }
    if args.baseline_src:
        record["cli_pairs"] = cli_pairs(times)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(fmt.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
