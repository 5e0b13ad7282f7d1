"""Spans around the calls the benchmark makes into nanoread's layers.

A span records name, start, end and the span that was open when it
began.  Spans stay in memory and are written out once, when the run
ends.  The untraced run uses ``NULL`` instead, whose ``call`` is a
plain function call and whose ``span`` records nothing.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, source: str = "workload") -> None:
        self.source = source  # "workload", or "probe:<workload>" (see run.py)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "source": self.source, **attrs}
            )

    def call(self, name: str, fn, *args, tag=None, **attrs):
        """Call ``fn(*args)`` inside a span; ``tag(result)`` adds attributes."""
        with self.span(name, **attrs):
            result = fn(*args)
        if tag is not None:
            self.spans[-1].update(tag(result))  # the span just closed
        return result


class _NullTracer:
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield

    def call(self, name: str, fn, *args, tag=None, **attrs):
        return fn(*args)


NULL = _NullTracer()


def durations(spans, name: str, **match) -> list[float]:
    """Durations in seconds of the spans called ``name`` whose attributes
    equal every ``match`` value."""
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and all(s.get(k) == v for k, v in match.items())
    ]


def dump(spans, path, t0: float) -> None:
    """Write spans as JSON lines, times in seconds since ``t0``."""
    with open(path, "w") as f:
        for s in sorted(spans, key=lambda s: (s["source"], s["id"])):
            rec = dict(s, start=s["start"] - t0, end=s["end"] - t0)
            f.write(json.dumps(rec, default=str) + "\n")
