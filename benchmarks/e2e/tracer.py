"""The benchmark's own spans: recorded around calls into the layers.

Spans are taken from *outside* the program — one around each public
call the harness makes — kept in memory and written out once, when the
run ends.  Records use the field names of :mod:`repro.obs` traces
(``name``/``span_id``/``parent_id``/``start``/``seconds``), so
``tools/tracereport.py`` reads the file unchanged; ``end`` and
``workload`` are added.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "self_times"]


class Tracer:
    """In-memory span recorder; nesting is tracked per thread."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, parent: "int | None" = None, **attrs):
        """Time the body as one span; yields the span id.

        ``parent`` links a span opened on a client thread to one opened
        on the thread that started it; within a thread the innermost
        open span is the parent.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "name": name,
                "span_id": span_id,
                "parent_id": parent,
                "workload": self.workload,
                "thread": threading.current_thread().name,
                "pid": os.getpid(),
                "start": start,
                "end": end,
                "seconds": end - start,
                "attrs": attrs,
            }
            with self._lock:
                self.records.append(record)

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``, in closing order."""
        with self._lock:
            return [r["seconds"] for r in self.records if r["name"] == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock:
            records = sorted(self.records, key=lambda r: r["span_id"])
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(records: "list[dict]") -> dict[int, float]:
    """``span_id -> self time``: the span minus what its children cover.

    Children on one thread never overlap, so the covered part is their
    sum; children on several client threads do, so the union of their
    intervals is taken.
    """
    children: "defaultdict[int, list[tuple[float, float]]]" = defaultdict(list)
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]].append((record["start"], record["end"]))
    out = {}
    for record in records:
        covered, reach = 0.0, record["start"]
        for start, end in sorted(children.get(record["span_id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[record["span_id"]] = record["seconds"] - covered
    return out
