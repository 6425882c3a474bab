"""Spans and counters for the traced benchmark run.

A span records (name, start, end, parent, op id) around one call the
benchmark makes into a library layer.  Spans stay in memory until the run
ends.  The untraced run uses ``NullTracer``, whose span is one shared no-op
context manager, so end-to-end numbers carry no recording cost.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NO_SPAN

    def count(self, name: str, n: float = 1) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self):
        t = self.tracer
        parent = t.open[-1] if t.open else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op_id])
        t.open.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.open.pop()
        return False

    @property
    def seconds(self) -> float:
        _, start, end, _, _ = self.tracer.spans[self.index]
        return end - start


class Tracer:
    """In-memory span and counter recorder; ``op_id`` tags every new span."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def totals(self) -> dict[str, tuple[float, int]]:
        """Seconds inside and number of closed spans, per span name."""

        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _, _ in self.spans:
            if end is not None:
                out[name][0] += end - start
                out[name][1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}

    def to_json_obj(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "op": op} for name, start, end, parent, op in self.spans]
