"""Spans and counts around the public calls into each fracfp module.

The tracer lives in the benchmark process only: it rebinds module and class
attributes of the imported library (and the callables of a ProblemSpec) to
wrappers that record a span per call.  Library code is not modified, so the
untraced runs time exactly what a user of the library runs.

A span is (name, start, end, parent, run id).  A layer's self time is the
sum of its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter

# (metric, unit, better, what it sums, end-to-end metric and workloads it
# should move).  Kinds: "self" = self time of the named span, "count" = a
# counter filled by a wrapper.  BENCHMARK.json lists the same metrics.
LAYERS = [
    ("problems.source_s", "s", "lower", ("self", "problems.source"),
     "wall_s, peak_rss_mb on ex2_graded and ex1_table; unchanged on stepper_long"),
    ("problems.source.calls", "count", "lower", ("count", "problems.source.calls"),
     "wall_s, peak_rss_mb on ex2_graded and ex1_table; unchanged on stepper_long"),
    ("problems.exact_s", "s", "lower", ("self", "problems.exact"), "wall_s on ex1_table"),
    ("problems.exact.calls", "count", "lower", ("count", "problems.exact.calls"), "wall_s on ex1_table"),
    ("kernels.mittag_leffler_s", "s", "lower", ("self", "kernels.mittag_leffler"), "wall_s on ex2_graded"),
    ("kernels.mittag_leffler.points", "count", "lower", ("count", "kernels.mittag_leffler.points"),
     "wall_s on ex2_graded"),
    ("kernels.conv_weights_s", "s", "lower", ("self", "kernels.conv_weights"), "wall_s on stepper_long"),
    ("kernels.conv_weights.entries", "count", "lower", ("count", "kernels.conv_weights.entries"),
     "wall_s on stepper_long"),
    ("kernels.w0_s", "s", "lower", ("self", "kernels.w0"), "wall_s on stepper_long"),
    ("stepper.step.self_s", "s", "lower", ("self", "stepper.step"), "wall_s on stepper_long"),
    ("stepper.history.bytes", "B.computed", "lower", ("count", "stepper.history.bytes"),
     "peak_rss_mb and wall_s on stepper_long"),
    ("stepper.solve.self_s", "s", "lower", ("self", "stepper.solve"), "wall_s on all workloads"),
    ("fem1d.assemble_G_s", "s", "lower", ("self", "fem1d.assemble_G"), "wall_s on stepper_long"),
    ("fem1d.thomas_solve_s", "s", "lower", ("self", "fem1d.thomas_solve"), "wall_s on stepper_long"),
    ("fem1d.l2_norm_s", "s", "lower", ("self", "fem1d.l2_norm"), "wall_s on ex1_table"),
    ("fem1d.project_initial_s", "s", "lower", ("self", "fem1d.project_initial"), "wall_s on ex1_table"),
    ("harness.compute_errors_s", "s", "lower", ("self", "harness.compute_errors"),
     "wall_s on ex1_table and ex2_graded"),
    ("harness.run_study.self_s", "s", "lower", ("self", "harness.run_study"),
     "wall_s on ex1_table and ex2_graded"),
    ("timegrid.build_mesh_s", "s", "lower", ("self", "timegrid.build_mesh"),
     "none: expected negligible on every workload"),
    ("bench.workload.self_s", "s", "lower", ("self", "bench.workload"),
     "none: time in the workload not covered by a traced layer"),
]

TOP_SPAN = "bench.workload"
TOP_SELF = "bench.workload.self_s"


class Tracer:
    """In-memory span and counter store for one traced workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, result) yields (counter, amount)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, amount in count(args, out):
                    self.counts[key] += amount
            return out

        return traced

    def self_times(self) -> dict:
        """Self time per span name: duration minus traced children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def top_duration(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self) -> dict:
        selfs = self.self_times()
        out = {}
        for metric, _, _, (kind, key), _ in LAYERS:
            out[metric] = selfs.get(key, 0.0) if kind == "self" else int(self.counts.get(key, 0))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _points(args, out):
    yield "kernels.mittag_leffler.points", int(out.size) if hasattr(out, "size") else 1


def _entries(args, out):
    yield "kernels.conv_weights.entries", int(out.size)


def _history(args, out):
    # step n >= 2 reads the n-1 stored increments W^1..W^{n-1}, d_h doubles each
    n = out.n
    yield "stepper.history.bytes", 8 * out.U_dof.size * max(n - 1, 0)


def _calls(key):
    def count(args, out):
        yield key, 1
    return count


def install(tracer: Tracer) -> None:
    """Rebind the public entry points of every fracfp module to traced wrappers.

    Names are rebound in the namespace that calls them (stepper imports
    assemble_G from fem1d, harness imports solve from stepper, ...), so
    each call from the library's own code passes through a wrapper once.
    """
    from fracfp import fem1d, harness, kernels, problems, stepper

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    patch(harness, "run_study", "harness.run_study")
    patch(harness, "compute_errors", "harness.compute_errors")
    patch(harness, "build_mesh", "timegrid.build_mesh")
    patch(harness, "l2_norm", "fem1d.l2_norm")
    patch(fem1d, "l2_norm", "fem1d.l2_norm")
    for owner in (harness, stepper):
        patch(owner, "solve", "stepper.solve")
    patch(stepper, "step", "stepper.step", _history)
    patch(stepper, "assemble_G", "fem1d.assemble_G")
    patch(stepper, "thomas_solve", "fem1d.thomas_solve")
    patch(stepper, "project_initial", "fem1d.project_initial")
    patch(problems, "mittag_leffler", "kernels.mittag_leffler", _points)
    patch(kernels.ConvolutionWeights, "row", "kernels.conv_weights", _entries)
    patch(kernels.ConvolutionWeights, "w0", "kernels.w0")
    harness._PROBLEMS = {key: _traced_factory(tracer, factory)
                         for key, factory in harness._PROBLEMS.items()}


def traced_problem(tracer: Tracer, spec):
    """Copy of a ProblemSpec whose source and exact-solution callables are traced."""
    changes = {}
    for attr in ("f", "f_regular"):
        fn = getattr(spec, attr)
        if fn is not None:
            changes[attr] = tracer.wrap("problems.source", fn, _calls("problems.source.calls"))
    if spec.exact is not None:
        changes["exact"] = tracer.wrap("problems.exact", spec.exact, _calls("problems.exact.calls"))
    return dataclasses.replace(spec, **changes)


def _traced_factory(tracer: Tracer, factory):
    @functools.wraps(factory)
    def make(alpha, *args, **kwargs):
        return traced_problem(tracer, factory(alpha, *args, **kwargs))
    return make
