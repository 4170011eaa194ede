"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and the rung it belongs
to.  Spans stay in memory and are written out once the run ends.  The
untraced path uses :class:`NullTracer`, whose ``span`` hands back one shared
no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rung: str = ""):
        record = {
            "id": len(self.records), "name": name, "rung": rung,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(records: list[dict]) -> dict[tuple[str, str], float]:
    """Seconds per (rung, span name): each span minus what its children cover."""
    child = {r["id"]: 0.0 for r in records}
    for r in records:
        if r["parent"] is not None:
            child[r["parent"]] += r["end"] - r["start"]
    out: dict[tuple[str, str], float] = {}
    for r in records:
        key = (r["rung"], r["name"])
        out[key] = out.get(key, 0.0) + r["end"] - r["start"] - child[r["id"]]
    return out


class NullTracer:
    def span(self, name: str, rung: str = ""):
        return _NULL
