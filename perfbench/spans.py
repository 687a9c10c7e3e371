"""In-memory span tracing of the meanreflect layers, installed from outside.

The tracer wraps public entry points of the package modules (and the
private Philox block, to count kernel lanes) for the length of one traced
run, then puts every original back. Each wrapper is installed where its
caller looks the name up: ``scheme`` and ``harness`` bind ``run_chunked``,
``map_ordered``, ``simulate`` and ``l2_error`` by name at import, methods
are patched on their classes, and module functions called through a module
attribute are patched on that module.

A span is ``(id, parent, name, thread, start, end)``. Worker threads started
by ``run_chunked`` and ``map_ordered`` inherit the span that started them
as parent, so self times can subtract work done on other threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from statistics import median

# Computed, not measured: 8-byte words one lane of the numpy Philox4x32-10
# block reads plus writes. Each of its 10 rounds runs 6 one-operand ufuncs
# (2 multiplies, 2 shifts, 2 masks: 2 words), 2 double xors (4 binary
# ufuncs: 3 words each) and 4 key updates (2 adds, 2 masks: 2 words); the
# two key copies before the rounds write 1 word each.
PHILOX_WORDS_PER_LANE = 10 * (6 * 2 + 4 * 3 + 4 * 2) + 2

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "stochastics.uniforms.s": "s",
    "stochastics.uniforms.calls": "count",
    "stochastics.uniforms.lanes": "count",
    "stochastics.ns_per_lane": "ns",
    "stochastics.gaussians.s": "s",
    "stochastics.counts.s": "s",
    "stochastics.marks.s": "s",
    "stochastics.marks.calls": "count",
    "stochastics.marks.point_law_lanes": "count",
    "philox.lanes": "count",
    "philox.s": "s",
    "philox.computed_bytes_per_lane": "B",
    "philox.computed_gb_per_s": "GB/s",
    "scheme.steps": "count",
    "scheme.step.s": "s",
    "scheme.step.self_s": "s",
    "scheme.step_ms.p50": "ms",
    "scheme.step_ms.tail": "ms",
    "reflection.evaluator.s": "s",
    "reflection.root.s": "s",
    "reflection.evals": "count",
    "reflection.active_steps": "count",
    "parallel.run_chunked.calls": "count",
    "parallel.split_calls": "count",
    "parallel.overhead_s": "s",
    "parallel.busy_ratio": "ratio",
    "parallel.map_ordered.s": "s",
    "parallel.speedup_2t": "ratio",
    "oracle.exact_path.s": "s",
    "oracle.exact_path.calls": "count",
    "oracle.case_iii_K.s": "s",
    "oracle.density_k.s": "s",
    "oracle.density_k.calls": "count",
    "harness.l2_error.s": "s",
    "harness.self_s": "s",
    "harness.replication_ms.p50": "ms",
    "harness.replication_ms.tail": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.digest_match": "count",
}


def tail(values):
    """(percentile, value) of the highest percentile with 10 samples beyond it.

    With 10 or fewer samples no percentile qualifies and the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(values)
    if not ordered:
        return 100.0, 0.0
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name, amount):
        with self._lock:
            self.counts[name] += amount

    def _timed(self, name, call, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return call(sid)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, threading.get_ident(), start, end)
            )

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr, name, tally=None):
        """Wrap ``owner.attr`` in a span; ``tally(args, kwargs, result)``
        yields ``(counter, amount)`` pairs to add after each call."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self._timed(name, lambda _sid: original(*args, **kwargs))
            if tally is not None:
                for counter, amount in tally(args, kwargs, result):
                    self._add(counter, amount)
            return result

        self._patch(owner, attr, traced)

    def _count(self, owner, attr, name, amount=lambda result: 1):
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            self._add(name, amount(result))
            return result

        self._patch(owner, attr, counted)

    def _span_fanout(self, owner, attr, name, child):
        """Wrap a helper whose first argument runs on worker threads, so each
        call of it becomes a ``child`` span parented to the helper's span."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(fn, *args, **kwargs):
            def call(sid):
                def inner(*a):
                    return self._timed(child, lambda _sid: fn(*a), parent=sid)

                return original(inner, *args, **kwargs)

            return self._timed(name, call)

        self._patch(owner, attr, traced)

    def install(self):
        import meanreflect as pkg
        from meanreflect import harness, oracle, reflection, scheme, stochastics

        def point_lanes(law):
            def tally(args, kwargs, result):
                point = isinstance(law(args, kwargs), stochastics.DiracPoint)
                return [("stochastics.marks.point_law_lanes", result.size if point else 0)]
            return tally

        self._span(
            stochastics, "_philox4x32", "philox.block",
            lambda args, kwargs, result: [
                ("philox.lanes", result[0].size),
                ("philox.bytes", result[0].size * result[0].itemsize * PHILOX_WORDS_PER_LANE),
            ],
        )
        self._span(stochastics, "uniforms", "stochastics.uniforms",
                   lambda args, kwargs, result: [("stochastics.uniforms.lanes", result.size)])
        self._span(stochastics, "gaussians", "stochastics.gaussians")
        self._span(stochastics, "poisson_counts", "stochastics.counts")
        self._span(stochastics.NoiseRecord, "marks", "stochastics.marks",
                   point_lanes(lambda args, kwargs: args[0].jump_law))
        self._span(stochastics, "jump_sizes", "stochastics.marks",
                   point_lanes(lambda args, kwargs: kwargs.get("law", args[-1])))

        self._span_fanout(scheme, "run_chunked", "parallel.run_chunked", "parallel.chunk")
        self._span_fanout(harness, "map_ordered", "parallel.map_ordered",
                          "harness.replication")

        self._span(scheme.ParticleSystem, "step", "scheme.step")
        for module in (pkg, scheme, harness):
            self._span(module, "simulate", "scheme.simulate")

        self._span(reflection.MeanEvaluator, "__init__", "reflection.evaluator")
        self._span(reflection.MeanEvaluator, "root", "reflection.root")
        self._count(reflection.MeanEvaluator, "__call__", "reflection.evals")
        self._count(reflection.ReflectionTracker, "advance", "reflection.active_steps",
                    lambda delta: int(delta > 0.0))

        self._span(oracle, "exact_case_i", "oracle.exact_path")
        self._span(oracle, "exact_case_ii", "oracle.exact_path")
        for module in (pkg, oracle):
            self._span(module, "exact_case_iii_K", "oracle.case_iii_K")
        self._span(oracle, "density_k", "oracle.density_k")

        for module in (pkg, harness):
            self._span(module, "l2_error", "harness.l2_error")
        self._span(pkg, "convergence_sweep", "harness.convergence_sweep")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction ---------------------------------------------------------

    def write(self, path):
        with open(path, "w") as out:
            for sid, parent, name, thread, start, end in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "thread": thread,
                    "start": start, "end": end,
                }) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def durations_ms(self, name):
        return [1e3 * (s[5] - s[4]) for s in self.spans if s[2] == name]

    def metrics(self):
        """Per-layer metrics, without those the run itself must supply
        (``parallel.speedup_2t`` and the ``trace.*`` entries)."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        for span in self.spans:
            by_name[span[2]].append(span)
            children[span[1]].append(span)

        def total(name):
            return sum((end - start for _, _, _, _, start, end in by_name[name]), 0.0)

        def calls(name):
            return len(by_name[name])

        def descendants(sid):
            pending = list(children[sid])
            while pending:
                span = pending.pop()
                yield span
                pending.extend(children[span[0]])

        step_self = 0.0
        for sid, _, _, _, start, end in by_name["scheme.step"]:
            inner = [
                (s[4], s[5]) for s in descendants(sid)
                if s[2].startswith(("stochastics.", "reflection."))
            ]
            step_self += (end - start) - _covered(start, end, inner)

        harness_self = 0.0
        for span in self.spans:
            if span[2].startswith("harness."):
                sid, start, end = span[0], span[4], span[5]
                inner = [(s[4], s[5]) for s in children[sid]]
                harness_self += (end - start) - _covered(start, end, inner)

        overhead = 0.0
        split = 0
        busy = 0.0
        capacity = 0.0
        for sid, _, _, _, start, end in by_name["parallel.run_chunked"]:
            chunks = [s[5] - s[4] for s in children[sid] if s[2] == "parallel.chunk"]
            if len(chunks) > 1:
                split += 1
            overhead += (end - start) - max(chunks, default=0.0)
            busy += sum(chunks)
            capacity += (end - start) * max(1, len(chunks))

        uniforms_s = total("stochastics.uniforms")
        uniform_lanes = self.counts["stochastics.uniforms.lanes"]
        philox_s = total("philox.block")
        steps_ms = self.durations_ms("scheme.step")
        replications_ms = self.durations_ms("harness.replication")
        return {
            "stochastics.uniforms.s": uniforms_s,
            "stochastics.uniforms.calls": calls("stochastics.uniforms"),
            "stochastics.uniforms.lanes": uniform_lanes,
            "stochastics.ns_per_lane": 1e9 * uniforms_s / uniform_lanes if uniform_lanes else 0.0,
            "stochastics.gaussians.s": total("stochastics.gaussians"),
            "stochastics.counts.s": total("stochastics.counts"),
            "stochastics.marks.s": total("stochastics.marks"),
            "stochastics.marks.calls": calls("stochastics.marks"),
            "stochastics.marks.point_law_lanes": self.counts["stochastics.marks.point_law_lanes"],
            "philox.lanes": self.counts["philox.lanes"],
            "philox.s": philox_s,
            "philox.computed_bytes_per_lane": (
                self.counts["philox.bytes"] / self.counts["philox.lanes"]
                if self.counts["philox.lanes"] else 0.0
            ),
            "philox.computed_gb_per_s": (
                1e-9 * self.counts["philox.bytes"] / philox_s if philox_s else 0.0
            ),
            "scheme.steps": calls("scheme.step"),
            "scheme.step.s": total("scheme.step"),
            "scheme.step.self_s": step_self,
            "scheme.step_ms.p50": median(steps_ms) if steps_ms else 0.0,
            "scheme.step_ms.tail": tail(steps_ms)[1],
            "reflection.evaluator.s": total("reflection.evaluator"),
            "reflection.root.s": total("reflection.root"),
            "reflection.evals": self.counts["reflection.evals"],
            "reflection.active_steps": self.counts["reflection.active_steps"],
            "parallel.run_chunked.calls": calls("parallel.run_chunked"),
            "parallel.split_calls": split,
            "parallel.overhead_s": overhead,
            "parallel.busy_ratio": busy / capacity if capacity else 0.0,
            "parallel.map_ordered.s": total("parallel.map_ordered"),
            "oracle.exact_path.s": total("oracle.exact_path"),
            "oracle.exact_path.calls": calls("oracle.exact_path"),
            "oracle.case_iii_K.s": total("oracle.case_iii_K"),
            "oracle.density_k.s": total("oracle.density_k"),
            "oracle.density_k.calls": calls("oracle.density_k"),
            "harness.l2_error.s": total("harness.l2_error"),
            "harness.self_s": harness_self,
            "harness.replication_ms.p50": median(replications_ms) if replications_ms else 0.0,
            "harness.replication_ms.tail": tail(replications_ms)[1],
        }
