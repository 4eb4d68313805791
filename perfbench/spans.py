"""In-memory spans around the benchmark's calls into each efft layer.

A span is one timed call: its name (``<layer>.<call>``), the operation it
belongs to, the index of the span that contains it, and its start and end
in ``perf_counter_ns`` units.  Spans stay in memory while the benchmark
runs and are written out once, at the end, as Chrome Trace Event JSON.
"""

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Records spans; ``spans[i]`` is ``[name, op, parent, start_ns, end_ns]``."""

    def __init__(self):
        self.spans = []

    def add(self, name, op, start_ns, end_ns, parent=None) -> int:
        """Record a span whose times the caller already took."""
        self.spans.append([name, op, parent, start_ns, end_ns])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name, op, parent=None):
        """Time the body of a ``with`` block; yields the span's index."""
        record = [name, op, parent, time.perf_counter_ns(), 0]
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record[4] = time.perf_counter_ns()

    def per_op_seconds(self, name) -> dict:
        """Total seconds spent in spans called ``name``, per operation."""
        totals = defaultdict(float)
        for span_name, op, _, start, end in self.spans:
            if span_name == name:
                totals[op] += (end - start) / 1e9
        return dict(totals)

    def durations(self, name) -> list:
        """Seconds of every span called ``name``, in recording order."""
        return [(end - start) / 1e9 for span_name, _, _, start, end in self.spans
                if span_name == name]

    def self_seconds(self) -> dict:
        """Self time per span name, summed over all spans of that name.

        A span's self time is its duration minus the time its direct
        children cover; children of one span never overlap here, because
        every span is opened and closed by the single benchmark thread.
        """
        covered = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start - covered[i]) / 1e9
        return dict(sorted(totals.items()))

    def chrome_trace(self, other_data: dict) -> dict:
        """The spans as a Chrome Trace Event JSON object (complete events)."""
        base = min((s[3] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "op": op, "parent": parent},
            }
            for i, (name, op, parent, start, end) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other_data}
