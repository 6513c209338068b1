"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
the index of the enclosing span (-1 at the root). Spans stay in memory
while the workload runs and are written out once at the end. A disabled
tracer hands out one shared no-op context, so untraced runs pay a single
method call per span site.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration, total self time).

        Self time is a span's duration minus the durations of its direct
        children; spans nest and never overlap, since the benchmark runs in
        one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child_time[i]))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, t._open[-1] if t._open else -1])
        t._open.append(self.index)
        t.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._open.pop()
        return False
