"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, rid)``: ``parent`` is the index of
the enclosing span on the same thread (or -1) and ``rid`` the request or
job id shared by every span of one request.  Spans live in a list until
:meth:`Tracer.dump` writes them out at the end of the run.

A layer's self time is its span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "rid", "index")

    def __init__(self, tracer: "Tracer", name: str, rid):
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter(), 0.0, parent, self.rid])
        stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._stack().pop()


class Tracer:
    """Records spans from any number of threads into one list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid=None) -> _Span:
        return _Span(self, name, rid)

    def _child_time(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def self_times(self) -> dict[str, list[float]]:
        """name -> self time (seconds) of each span with that name."""
        child_time = self._child_time()
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _parent, _rid) in enumerate(self.spans):
            out[name].append(end - start - child_time[i])
        return out

    def self_time_by_rid(self, name: str) -> dict:
        """rid -> summed self time of the spans called ``name``."""
        child_time = self._child_time()
        out: dict = defaultdict(float)
        for i, (span_name, start, end, _parent, rid) in enumerate(self.spans):
            if span_name == name:
                out[rid] += end - start - child_time[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "rid": rid}
                    )
                )
                fh.write("\n")
