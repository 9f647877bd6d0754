"""Layer spans and counters for the traced run, installed at run time.

``Tracer.install`` swaps a wrapper in for every function defined in a
skewext module, in every skewext namespace that holds it (so a name
imported with ``from .boundary import canonical_system`` is caught too),
for ``Subspace.__post_init__``, ``ExpPoly.__init__`` and
``RationalComplex.__post_init__``, and for ``numpy.linalg.svd`` and
``numpy.linalg.lstsq``.  No source file changes; ``uninstall`` puts the
originals back.

A call that crosses into another layer opens a span (function, start, end,
parent span, op id), kept in memory until the run ends.  A call from inside
its own layer is only counted: its time stays in the enclosing span of the
same layer, so layer self times are unchanged and the hot exact-arithmetic
helpers do not allocate a span each.  The functions in ``ALWAYS_SPANNED``
open a span on every call, because metrics time them on their own.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = (
    "cli",
    "formats",
    "extensions",
    "boundary",
    "relation",
    "subspace",
    "linalg",
    "halfline",
    "sampling",
    "numpy",
)

ALWAYS_SPANNED = {
    "cli.main",
    "cli._emit",
    "halfline.inner",
    "halfline.resolvent_solve",
    "subspace.Subspace.__post_init__",
}

_DECODERS = {"pair_to_complex", "fraction_from_str"}


def _is_decoder(func_name: str) -> bool:
    return func_name.endswith("_from_json") or func_name in _DECODERS


class Tracer:
    def __init__(self):
        self.names = []  # function id -> (qualified name, layer)
        self.calls = []  # function id -> call count
        self.spans = []  # (function id, start, end, parent span, op id)
        self.op = -1
        self.svd_flop = 0
        self.inner_term_pairs = 0
        self._stack = []
        self._layers = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        import numpy as np

        from skewext import halfline, subspace

        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name.startswith("skewext.") and isinstance(m, types.ModuleType)
        ]
        wrappers = {}
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("skewext."):
                    continue
                if id(value) not in wrappers:
                    layer = home.split(".", 1)[1]
                    name = f"{layer}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(value, name, layer)
                self._patch(module, attr, wrappers[id(value)])

        for cls, method in (
            (subspace.Subspace, "__post_init__"),
            (halfline.ExpPoly, "__init__"),
            (halfline.RationalComplex, "__post_init__"),
        ):
            layer = cls.__module__.split(".", 1)[1]
            name = f"{layer}.{cls.__name__}.{method}"
            self._patch(cls, method, self._wrap(vars(cls)[method], name, layer))

        self._patch(np.linalg, "svd", self._wrap(np.linalg.svd, "numpy.svd", "numpy"))
        self._patch(np.linalg, "lstsq", self._wrap(np.linalg.lstsq, "numpy.lstsq", "numpy"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _svd_hook(self, args, kwargs):
        shape = getattr(args[0], "shape", None) if args else None
        if shape is not None and len(shape) >= 2:
            m, n = shape[-2], shape[-1]
            self.svd_flop += m * n * min(m, n)

    def _inner_hook(self, args, kwargs):
        f, g = args[0], args[1]
        self.inner_term_pairs += len(f.terms) * len(g.terms)

    def _wrap(self, fn, name, layer):
        hook = {"numpy.svd": self._svd_hook, "halfline.inner": self._inner_hook}.get(name)
        fid = len(self.names)
        self.names.append((name, layer))
        self.calls.append(0)
        calls, spans, stack, layers = self.calls, self.spans, self._stack, self._layers
        spanned = name in ALWAYS_SPANNED
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if hook is not None:
                hook(args, kwargs)
            if not spanned and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (fid, start, end, parent, tracer.op)

        return wrapper

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Per span, its duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def calls_of(self, *names) -> int:
        wanted = set(names)
        return sum(c for (n, _), c in zip(self.names, self.calls) if n in wanted)

    def span_time_of(self, predicate) -> float:
        return sum(
            end - start
            for fid, start, end, _, _ in self.spans
            if predicate(*self.names[fid])
        )

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tlayer\tstart\tend\tparent\top\n")
            for i, (fid, start, end, parent, op) in enumerate(self.spans):
                name, layer = self.names[fid]
                fh.write(f"{i}\t{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def layer_metrics(self, ops: int, sizes_by_op: dict, speed: float = 1.0) -> dict:
        """Per-op averages of the traced ops; ``sizes_by_op`` maps op id to
        n, and ``speed`` scales times to the nominal host speed."""
        own = self.self_times()
        layer_self = defaultdict(float)
        boundary_by_op = defaultdict(float)
        for (fid, _, _, _, op), t in zip(self.spans, own):
            layer = self.names[fid][1]
            layer_self[layer] += t
            if layer == "boundary":
                boundary_by_op[op] += t
        layer_calls = defaultdict(int)
        for (_, layer), c in zip(self.names, self.calls):
            layer_calls[layer] += c

        per_op = 1.0 / ops
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer] * per_op
            out[f"{layer}.self_s"] = layer_self[layer] * per_op * speed

        def calls(*names):
            return self.calls_of(*names) * per_op

        def span_s(predicate):
            return self.span_time_of(predicate) * per_op * speed

        def named(*names):
            return lambda name, _layer: name in names

        def formats_spans(decode):
            return lambda name, layer: (
                layer == "formats" and _is_decoder(name.split(".")[-1]) == decode
            )

        out.update(
            {
                "subspace.oblique_project_calls": calls("subspace.oblique_project"),
                "numpy.lstsq_calls": calls("numpy.lstsq"),
                "numpy.svd_calls": calls("numpy.svd"),
                "numpy.svd_flop_computed": self.svd_flop * per_op,
                "boundary.decompositions_per_op": calls(
                    "boundary.canonical_system", "boundary.canonical_decomposition"
                ),
                "boundary.canonical_exponent": _loglog_slope(boundary_by_op, sizes_by_op),
                "subspace.constructions": calls("subspace.Subspace.__post_init__"),
                "subspace.validate_s": span_s(named("subspace.Subspace.__post_init__")),
                "relation.adjoint_calls": calls("relation.adjoint"),
                "relation.deficiency_calls": calls("relation._deficiency_of_adjoint"),
                "cli.emit_s": span_s(named("cli._emit")),
                "formats.encode_s": span_s(formats_spans(decode=False)),
                "formats.decode_s": span_s(formats_spans(decode=True)),
                "halfline.inner_calls": calls("halfline.inner"),
                "halfline.inner_term_pairs": self.inner_term_pairs * per_op,
                "halfline.inner_s": span_s(named("halfline.inner")),
                "halfline.rational_allocs": calls("halfline.RationalComplex.__post_init__"),
                "halfline.resolvent_s": span_s(named("halfline.resolvent_solve")),
                "halfline.exppoly_constructions": calls("halfline.ExpPoly.__init__"),
            }
        )
        return out


def _loglog_slope(time_by_op: dict, sizes_by_op: dict) -> float:
    """Least-squares slope of log(median time per size) against log(size);
    0.0 when fewer than two sizes have a positive time."""
    by_size = defaultdict(list)
    for op, n in sizes_by_op.items():
        if n:
            by_size[n].append(time_by_op.get(op, 0.0))
    points = [
        (math.log(n), math.log(statistics.median(ts)))
        for n, ts in sorted(by_size.items())
        if statistics.median(ts) > 0
    ]
    if len(points) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope
