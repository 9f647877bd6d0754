"""One workload run in a fresh interpreter; started by ``run.py``.

The first thing it does is import ``skewext.cli`` and time the import.  It
then runs one untimed warm-up op, the timed closed loop (one client, no
think time), a determinism re-issue and the degree-cap probe, and prints
its results as one JSON line.  With ``--trace 1`` the loop is split into an
untraced half and a traced half, and the result holds the layer metrics.
"""

import time

_t0 = time.perf_counter()
import skewext.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# The speed of a shared host drifts by tens of percent over seconds, and a
# run's wall times drift with it.  So a calibration kernel that mixes the
# work the workloads do (interpreter loops, dicts, Fraction arithmetic, a
# dense complex SVD) is timed between ops, and every op time is scaled to
# the nominal speed at which the kernel takes NOMINAL_KERNEL_S.  Raw wall
# times are kept in the run record.
NOMINAL_KERNEL_S = 0.001
SPEED_WINDOW_S = 0.5
_KERNEL_MATRIX = np.arange(1600, dtype=float).reshape(40, 40) % 7 + 1j * np.eye(40)
_svd = np.linalg.svd  # bound before a traced run wraps numpy.linalg.svd


def calibration_kernel():
    acc = 0
    for i in range(2000):
        acc += (i * i) % 7
    counts = {}
    for i in range(500):
        counts[i & 63] = counts.get(i & 63, 0) + 1
    f = Fraction(1, 3)
    for i in range(50):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, 7)
    _svd(_KERNEL_MATRIX)
    return acc, f


def kernel_seconds():
    """Best of three kernel timings, which drops one-off interruptions."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def call_cli(op):
    """Run one op in process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = skewext.cli.main(op.argv)
        except Exception as exc:  # the op fails; the run goes on
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def verdict(op, code, stdout, stderr):
    """None when the op passed, else why it failed."""
    if code != 0:
        return f"{op.label}: exit {code}: {stderr.strip()[-300:]}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"{op.label}: report is not JSON ({exc})"
    problem = op.check(report)
    return f"{op.label}: {problem}" if problem else None


class Phase:
    """Timed ops of one phase: latencies, sizes, report sizes, failures."""

    def __init__(self, name):
        self.name = name
        self.latencies = []
        self.intervals = []
        self.kernel = []  # (time, kernel seconds), sampled between ops
        self.labels = []
        self.sizes = {}
        self.report_bytes = []
        self.failures = []
        self.first = None  # (op, stdout) of op 0, for the determinism check

    def run(self, workload, seconds, start_index=0, tracer=None):
        """Closed loop until ``seconds`` of wall time have passed, stopping
        only on a cycle boundary so every size keeps its share of the ops.
        Input generation and output checks run with the op clock stopped."""
        deadline = time.perf_counter() + seconds
        i = start_index
        while True:
            self.kernel.append((time.perf_counter(), kernel_seconds()))
            if time.perf_counter() >= deadline and (i - start_index) % workload.cycle == 0:
                break
            op = workload.op(self.name, i)
            if tracer is not None:
                tracer.op = i
            started = time.perf_counter()
            elapsed, code, stdout, stderr = call_cli(op)
            if tracer is not None:
                tracer.op = -1
            self.latencies.append(elapsed)
            self.intervals.append((started, started + elapsed))
            self.labels.append(op.label)
            self.sizes[i] = op.size
            self.report_bytes.append(len(stdout.encode("utf-8")))
            problem = verdict(op, code, stdout, stderr)
            if problem:
                self.failures.append(problem)
            if self.first is None:
                self.first = (op, stdout)
            i += 1
        return i

    @property
    def ops(self):
        return len(self.latencies)

    def speed_factors(self):
        """Per op, NOMINAL_KERNEL_S over the median kernel time sampled
        within SPEED_WINDOW_S of the op, always counting the samples taken
        just before and just after it."""
        times = [t for t, _ in self.kernel]
        factors = []
        for i, (start, end) in enumerate(self.intervals):
            lo = min(bisect.bisect_left(times, start - SPEED_WINDOW_S), i)
            hi = max(bisect.bisect_right(times, end + SPEED_WINDOW_S), i + 2)
            window = [k for _, k in self.kernel[lo:hi]]
            factors.append(NOMINAL_KERNEL_S / statistics.median(window))
        return factors

    def scaled_latencies(self):
        return [t * f for t, f in zip(self.latencies, self.speed_factors())]

    def ops_per_s(self):
        return self.ops / sum(self.scaled_latencies())


def cycle_median(latencies, cycle):
    """Median over complete cycles of each cycle's median latency.

    A cycle holds one op of every size, so the plain median of a run falls
    in the gap between two size classes and follows their extremes; the
    median of cycle medians does not.  With a cycle of one op it is the
    plain median."""
    return statistics.median(
        statistics.median(latencies[c : c + cycle])
        for c in range(0, len(latencies) - cycle + 1, cycle)
    )


def tail(latencies, percentile):
    """(latency, ops beyond it) at ``percentile``, by nearest rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def determinism_check(phase):
    """Re-issue the phase's first op; its report must be byte-identical."""
    op, first = phase.first
    _, code, stdout, _ = call_cli(op)
    if code != 0 or stdout != first:
        return f"{op.label}: re-issued report differs from the first"
    return None


def environment(args, workload):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": workload.sizes(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--outdir", default=".")
    args = parser.parse_args()
    if args.import_only:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0

    workdir = os.path.join(args.outdir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir):
    workload = workloads.make_workload(args.workload, args.seed, args.smoke, workdir)
    problems = []

    warm = workload.op("warmup", 0)
    _, code, stdout, stderr = call_cli(warm)
    problem = verdict(warm, code, stdout, stderr)
    if problem:
        problems.append(f"warm-up {problem}")

    result = {"environment": environment(args, workload), "import_s": IMPORT_S}
    if args.trace:
        plain = Phase("plain")
        end = plain.run(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase("traced")
            traced.run(workload, args.seconds / 2, start_index=end, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        layer = tracer.layer_metrics(
            traced.ops, traced.sizes, statistics.median(traced.speed_factors())
        )
        layer["cli.report_bytes"] = statistics.fmean(traced.report_bytes)
        layer["trace.overhead_ratio"] = traced.ops_per_s() / plain.ops_per_s()
        spans_path = os.path.join(
            args.outdir, f"spans-{args.workload}-seed{args.seed}.tsv"
        )
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path
        result["span_count"] = len(tracer.spans)
        timed = plain
    else:
        timed = Phase("timed")
        timed.run(workload, args.seconds)
        phases = [timed]
        layer = {}

    problem = determinism_check(timed)
    if problem:
        problems.append(f"determinism {problem}")

    probe = workloads.degree_cap_probe(workdir)
    _, code, stdout, stderr = call_cli(probe)
    probe_problem = verdict(probe, code, stdout, stderr)

    attempted = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failures]
    scaled = timed.scaled_latencies()
    tail_s, beyond = tail(scaled, workload.tail_percentile)
    result.update(
        {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:20],
            "problems": problems,
            "degree_cap_probe": probe_problem or "pass",
            "ops_per_s": timed.ops_per_s(),
            "op_p50_ms": cycle_median(scaled, workload.cycle) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "op_tail_percentile": workload.tail_percentile,
            "ops_beyond_tail": beyond,
            "ops_timed": timed.ops,
            "raw_ops_per_s": timed.ops / sum(timed.latencies),
            "raw_op_p50_ms": cycle_median(timed.latencies, workload.cycle) * 1e3,
            "kernel_median_s": statistics.median(k for _, k in timed.kernel),
            "kernel_samples": timed.kernel,
            "op_intervals": timed.intervals,
            "op_latencies_ms": [
                [label, t * 1e3, f]
                for label, t, f in zip(timed.labels, timed.latencies, timed.speed_factors())
            ],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    if args.trace:
        layer["failed_ratio"] = len(failures) / attempted
        layer["halfline.degree_cap_probe_failed"] = 1.0 if probe_problem else 0.0
        result["layer"] = layer
    return result


if __name__ == "__main__":
    sys.exit(main())
