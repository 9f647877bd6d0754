"""Smoke tests of the benchmark at tiny sizes.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out"))
    proc = bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_and_restores():
    import skewext.boundary
    import skewext.cli
    import skewext.extensions
    from tracer import Tracer

    original = skewext.boundary.canonical_system
    tracer = Tracer()
    tracer.install()
    try:
        assert skewext.extensions.canonical_system is skewext.boundary.canonical_system
        assert skewext.boundary.canonical_system is not original
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert skewext.cli.main(["sweep", "--count", "1", "--seed", "4"]) == 0
    finally:
        tracer.uninstall()
    assert skewext.boundary.canonical_system is original
    layer = tracer.layer_metrics(1, {0: 0})
    assert layer["boundary.decompositions_per_op"] >= 1
    assert layer["subspace.constructions"] >= 1
    assert layer["cli.calls"] >= 1
    own = tracer.self_times()
    total = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert math.isclose(sum(own), total, rel_tol=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_tampered_reports(workload, tmp_path):
    import skewext.cli
    import workloads

    tamper = {
        "canonical": lambda p: p.update(indices=[0, 1]),
        "sweep": lambda p: p.update(failures=[{"seed": 1, "failed": ["bridge_holds"]}]),
        "green": lambda p: p.update(rhs={"re": "1/7", "im": "0"}),
        "resolvent": lambda p: p.update(trace_zero=False),
        "dissipative": lambda p: p.update(re_inner="1", nonpositive=False),
    }
    w = workloads.make_workload(workload, 5, True, str(tmp_path))
    for index in range(w.cycle):
        op = w.op("check", index)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert skewext.cli.main(op.argv) == 0
        report = json.loads(out.getvalue())
        assert op.check(report) is None
        kind = op.argv[2] if op.argv[0] == "halfline" else op.argv[0]
        tamper[kind](report["payload"])
        assert op.check(report) is not None
