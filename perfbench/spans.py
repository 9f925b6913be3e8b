"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, the span open when it started (its
parent) and the ideal it belongs to. Self time is a span's duration minus
the part of its interval covered by its children. Counters and maxima are
recorded at the same call sites from the objects the calls return.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    ideal: str | None


class Tracer:
    on = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.ideal: str | None = None
        self.deferred: list = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.ideal))

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def defer(self, fn) -> None:
        """Run fn after the current ideal's span closes, outside its time."""
        self.deferred.append(fn)

    def run_deferred(self) -> None:
        for fn in self.deferred:
            fn()
        self.deferred.clear()

    def write(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.id):
                row = asdict(s)
                row["start"] -= origin
                row["end"] -= origin
                handle.write(json.dumps(row) + "\n")


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    on = False
    ideal = None

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args):
        return fn(*args)

    def add(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass

    def defer(self, fn) -> None:
        pass

    def run_deferred(self) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    names = {s.id: s.name for s in spans}
    totals: dict[str, float] = defaultdict(float)
    for sid, value in self_times(spans).items():
        totals[names[sid]] += value
    return dict(totals)
