"""Spans recorded from the benchmark's side of each call into a layer.

A span is one call the benchmark makes into a public function of a
closure14 module: its name, start, end, parent span and op id.  The first
``keep`` spans stay in memory until the run ends, and the per-layer timings
are read from them; later spans are timed the same way but not kept, so
that a long run costs the same per call and bounded memory.  Nothing
inside the program is instrumented.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import pstats
import time


class Tracer:
    def __init__(self, keep: int):
        self.spans = []
        self.keep = keep
        self.dropped = 0
        self.partial_op = None  # the op whose spans were only partly kept
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans) + self.dropped
        span = {"id": span_id, "op": self.op, "name": name, "parent": parent, **attrs}
        if len(self.spans) < self.keep:
            self.spans.append(span)
        else:
            if not self.dropped:
                self.partial_op = self.op
            self.dropped += 1
        self._stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self) -> dict:
        """Kept span durations by span name."""
        out = {}
        for s in self.spans:
            out.setdefault(s["name"], []).append(s["end"] - s["start"])
        return out

    def per_op_totals(self, name) -> list:
        """Summed duration of the kept ``name`` spans of each numbered op."""
        out = {}
        for s in self.spans:
            if s["name"] == name and isinstance(s["op"], int) and s["op"] != self.partial_op:
                out[s["op"]] = out.get(s["op"], 0.0) + s["end"] - s["start"]
        return list(out.values())

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def profile_call(fn, target_code):
    """Run ``fn`` under cProfile; return (calls, share) of ``target_code``.

    ``calls`` counts every call of the target function, recursive ones
    included; ``share`` is its cumulative time over the whole call's time,
    both measured under the profiler.
    """
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    total = time.perf_counter() - t0
    key = (target_code.co_filename, target_code.co_firstlineno, target_code.co_name)
    stats = pstats.Stats(prof).stats
    if key not in stats:
        return 0, 0.0
    _, calls, _, cumulative, _ = stats[key]
    return calls, cumulative / total
