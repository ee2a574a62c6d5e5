"""In-memory spans around the benchmark's calls into rwig modules.

A span is (id, name, start, end, parent).  Spans are kept in a list while
the traced part runs and written out once, when it ends.  A span name is
``<module>.<step>``; the per-layer metric ``<module>.<step>_s`` is the sum
of the durations of the spans with that name.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def to_json_obj(self) -> dict:
        return {"trace": self.trace_id, "spans": self.spans, "counts": self.counts}


def durations_by_name(spans: list[dict]) -> dict[str, float]:
    """Total duration of the spans of each name."""
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return totals


def layer_time(spans: list[dict]) -> float:
    """Summed duration of the layer spans: the children of the root span."""
    roots = {s["id"] for s in spans if s["parent"] is None}
    return sum(s["end"] - s["start"] for s in spans if s["parent"] in roots)
