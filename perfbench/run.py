"""skewext benchmark: timed in-process calls to the ``skewext`` CLI entry point.

Usage, from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload canonical_large --seed 1 --seconds 38 --trace 0

``--workload all`` runs the three workloads one after another.  ``--smoke``
shrinks every size so a run takes seconds; ``test_smoke.py`` exercises it.

Each run starts a fresh interpreter (``worker.py``) with ``PYTHONPATH=src``
and BLAS pinned to one thread, so that numbers do not depend on how many
threads OpenBLAS picks on a shared machine.  Before that, it starts several
interpreters that only import ``skewext.cli``; ``setup_s`` is the median of
their import times and the worker's own.

The op-time metrics (``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``) are wall
times scaled to a nominal host speed by a calibration kernel timed between
ops (see ``worker.py``); the raw wall times are in the run record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Every metric is also printed by name, with its unit, on
standard error; with ``--trace 1`` each line also says which end-to-end
metric the layer metric should move and on which workload.  The whole run
record (machine, versions, commit, sizes, tail percentile, per-op times,
failures) is written to ``perfbench/_out/``, and the spans of a traced run
beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
IMPORT_PROBES = 10
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# name: (unit, end-to-end metric it should move, workloads that exercise it,
# workloads that bypass it, where the prediction is no change)
PER_LAYER = {
    **{
        f"{layer}.{kind}": (unit, "ops_per_s", f"workloads calling {layer}", "the others")
        for layer in LAYERS
        for kind, unit in (("calls", "count/op"), ("self_s", "s/op"))
    },
    "subspace.oblique_project_calls": (
        "count/op", "op_p50_ms, op_tail_ms", "canonical_large (2n-k per canonical system)",
        "halfline_exact; small on sweep_small",
    ),
    "numpy.lstsq_calls": (
        "count/op", "op_p50_ms, op_tail_ms", "canonical_large",
        "halfline_exact; small on sweep_small",
    ),
    "boundary.decompositions_per_op": (
        "count/op", "ops_per_s, op_p50_ms", "sweep_small, canonical_large (ideal 1)",
        "halfline_exact",
    ),
    "boundary.canonical_exponent": (
        "1", "op_tail_ms", "canonical_large (slope over its three n; 0 elsewhere)", "-",
    ),
    "numpy.svd_calls": (
        "count/op", "op_p50_ms, ops_per_s", "canonical_large, sweep_small", "halfline_exact",
    ),
    "numpy.svd_flop_computed": (
        "flop/op", "op_p50_ms", "canonical_large (sum of m*n*min(m,n) over svd shapes)",
        "halfline_exact",
    ),
    "subspace.constructions": (
        "count/op", "ops_per_s", "sweep_small", "canonical_large (about no change)",
    ),
    "subspace.validate_s": (
        "s/op", "ops_per_s", "sweep_small", "canonical_large (about no change)",
    ),
    "relation.adjoint_calls": (
        "count/op", "ops_per_s, op_p50_ms", "sweep_small, canonical_large", "halfline_exact",
    ),
    "relation.deficiency_calls": (
        "count/op", "ops_per_s, op_p50_ms", "sweep_small, canonical_large", "halfline_exact",
    ),
    "cli.emit_s": (
        "s/op", "op_p50_ms, op_tail_ms, peak_rss_mb", "canonical_large", "sweep_small",
    ),
    "cli.report_bytes": (
        "bytes/op", "op_p50_ms, op_tail_ms, peak_rss_mb", "canonical_large", "sweep_small",
    ),
    "formats.encode_s": (
        "s/op", "op_p50_ms, op_tail_ms, peak_rss_mb", "canonical_large", "sweep_small",
    ),
    "formats.decode_s": (
        "s/op", "op_p50_ms, op_tail_ms", "canonical_large", "sweep_small",
    ),
    "halfline.inner_calls": (
        "count/op", "ops_per_s, op_tail_ms", "halfline_exact (green, dissipative)",
        "sweep_small, canonical_large",
    ),
    "halfline.inner_term_pairs": (
        "count/op", "ops_per_s, op_tail_ms", "halfline_exact (green, dissipative)",
        "sweep_small, canonical_large",
    ),
    "halfline.inner_s": (
        "s/op", "ops_per_s, op_tail_ms", "halfline_exact (green, dissipative)",
        "sweep_small, canonical_large",
    ),
    "halfline.rational_allocs": (
        "count/op", "ops_per_s, op_tail_ms", "halfline_exact", "sweep_small, canonical_large",
    ),
    "halfline.resolvent_s": (
        "s/op", "op_p50_ms", "halfline_exact (resolvent ops)", "sweep_small, canonical_large",
    ),
    "halfline.exppoly_constructions": (
        "count/op", "op_p50_ms", "halfline_exact (resolvent ops)",
        "sweep_small, canonical_large",
    ),
    "trace.overhead_ratio": ("ratio", "-", "all (traced / untraced ops_per_s)", "-"),
    "failed_ratio": ("ratio", "-", "all (failed / attempted ops)", "-"),
    "halfline.degree_cap_probe_failed": (
        "count", "-", "all (1 while t^32 e^-t has no resolvent)", "-",
    ),
}


def git_commit() -> str:
    """The checked-out commit, read from .git; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(argv: list, env: dict, timeout: float) -> dict:
    """Run worker.py to completion; its last stdout line is its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, deadline: float) -> dict:
    env = worker_env()
    probe_argv = ["--import-only"]
    run_worker(probe_argv, env, 60)  # compiles bytecode; not measured
    imports = [run_worker(probe_argv, env, 60)["import_s"] for _ in range(IMPORT_PROBES)]
    argv = [
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--outdir", str(OUT),
    ]
    if args.smoke:
        argv.append("--smoke")
    result = run_worker(argv, env, max(1.0, deadline - time.monotonic()))
    imports.append(result["import_s"])
    result["setup_s"] = statistics.median(imports)
    result["import_probes_s"] = imports
    result["environment"]["commit"] = git_commit()
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {
            name: {"value": result["layer"][name], "unit": spec[0]}
            for name, spec in PER_LAYER.items()
        }
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(name: str, result: dict, metrics: dict, trace: int):
    log = sys.stderr
    log.write(
        f"{name}: {result['attempted']} ops, {result['failed']} failed; "
        f"tail is p{result['op_tail_percentile']} of {result['ops_timed']} timed ops, "
        f"{result['ops_beyond_tail']} beyond it; "
        f"degree-cap probe: {result['degree_cap_probe']}\n"
    )
    for problem in result["problems"] + result["failures"]:
        log.write(f"  problem: {problem}\n")
    for metric, m in metrics.items():
        why = ""
        if trace:
            _, moves, exercised, bypassed = PER_LAYER[metric]
            why = f"  [moves {moves}; exercised by {exercised}; bypassed by {bypassed}]"
        log.write(f"  {metric} = {m['value']:.6g} {m['unit']}{why}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewext" / "cli.py").is_file():
        sys.stderr.write(f"error: no skewext sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)

    results, metrics = {}, {}
    for name in names:
        result = run_workload(name, args, deadline)
        results[name] = result
        own = metrics_of(result, args.trace)
        report(name, result, own, args.trace)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in own.items()})
        record = OUT / f"record-{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    correct = all(r["failed"] == 0 and not r["problems"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
