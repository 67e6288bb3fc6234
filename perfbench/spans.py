"""In-memory spans around the benchmark's calls into ctxprob's layers.

A span is ``(op_id, span_id, parent_id, name, start_ns, end_ns)``.  Every op
gets a root span named ``op``; each call the benchmark makes into a layer
function is a child span of the span open at the time.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its direct children; the op span's self time is the benchmark's own work
between layer calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: layer calls go straight through."""

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        pass


class Tracer:
    """Tracing on: records one span per layer call and per-name counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0
        self._stack: list[int] = []
        self._op_id = -1
        self._op_start = 0
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack = [self._new_id()]
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.spans.append((self._op_id, self._stack[0], None, "op", self._op_start, end))
        self._stack = []
        self.ops += 1

    def call(self, name, fn, *args, **kwargs):
        span = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self._op_id, span, parent, name, start, end))

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and summed self time in ns, by span name."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for _, span, _, name, start, end in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[span]
        return calls, self_ns

    def op_ns(self) -> int:
        """Summed duration of all op spans."""
        return sum(end - start for _, _, _, name, start, end in self.spans if name == "op")

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("op", "span", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


NULL = NullTracer()
