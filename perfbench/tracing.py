"""In-memory spans around the benchmark's calls into sgkr, and the
summary statistics the report needs.

A span records its name, start, end, parent span and request id. Spans
are kept in a list while the benchmark runs and written out as JSON lines
when it ends. The layer of a span is the part of its name before the
first dot, so `graph.merge` belongs to the `graph` layer.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NO_SPAN = nullcontext()


class Tracer:
    """Records spans when enabled; otherwise every span is a shared
    no-op context, so untraced runs pay one method call per boundary."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, request]
        self._stack: list[int] = []
        self.request = ""

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "request": request}) + "\n")

    def per_request(self, name: str) -> list[float]:
        """Milliseconds spent in spans called `name`, summed per request,
        for every request that has one."""
        totals: dict[str, int] = defaultdict(int)
        for span_name, start, end, _, request in self.spans:
            if span_name == name:
                totals[request] += end - start
        return [ns / 1e6 for ns in totals.values()]

    def per_call(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def self_ms_by_layer(self, first: int, stop: int) -> dict[str, float]:
        """Self time per layer in ms over spans[first:stop]: each span's
        duration minus the part its direct children cover, summed by
        layer. The range must hold whole requests."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans[first:stop]:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index in range(first, stop):
            name, start, end, _, _ = self.spans[index]
            totals[name.split(".")[0]] += (end - start - child_ns[index]) / 1e6
        return dict(totals)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and
    its name. Below 22 samples that percentile would not lie above the
    median, so the maximum is reported instead."""
    if not values:
        return 0.0, "none"
    ordered = sorted(values)
    n = len(ordered)
    if n < 22:
        return ordered[-1], f"max of {n}"
    index = n - 11  # ten samples lie above this one
    return ordered[index], f"p{math.floor(100 * (index + 1) / n)} of {n}"
