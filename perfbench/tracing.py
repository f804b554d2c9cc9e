"""In-memory spans recorded by the benchmark around its own calls into
``pogorelov``.

Nothing inside the package is wrapped: a span covers exactly one public call
that the benchmark makes, so internal reshaping of the package cannot break
the trace.  Untraced runs use ``NullTracer``, whose spans cost one attribute
lookup and an empty ``with``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    """Tracer used for the end-to-end runs: records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self, op_id: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1].index if tr._stack else None
        self.op = tr.op_id
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, start, end, parent span, op id) kept in memory."""

    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self.op_id: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_op(self, op_id: int | None) -> None:
        self.op_id = op_id

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds (total minus
        the time covered by direct children)."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time[s.index]
        return out
