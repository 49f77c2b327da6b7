"""Hierarchical tracing spans with JSON-lines export.

A span measures one timed region of the hot path::

    with span("fit.analysis", lmax=48) as sp:
        ...
        sp.set(slices=n_slices)

Spans nest: each thread keeps its own stack, so a ``sht.forward`` span
opened while ``fit.spectral`` is active records ``fit.spectral`` as its
parent.  Work handed to another thread links explicitly —
``span("campaign.batch", parent=total_span)`` — because a worker thread's
stack starts empty.

Spans **always measure** (two ``perf_counter`` reads plus a duration
histogram in the process-wide metrics registry, so ``sp.seconds`` and
the ``<name>.seconds`` histograms work unconditionally), but they only
**record trace events** while tracing is enabled (:func:`enable` /
:func:`tracing` / the ``REPRO_TRACE`` environment variable).  Recording
appends one JSON object per span to an in-memory ring buffer
(:func:`trace_records`) and, when a path was given, one line to a
JSON-lines file that :mod:`tools.tracereport` aggregates.

Two contracts the test-suite pins:

* **bit-inert** — spans never touch the arrays flowing through them;
  outputs are bit-identical with tracing on, off, or toggled mid-run;
* **toggle-safe** — :func:`disable` may race with spans in flight; a
  span that closes after the sink closed simply drops its record.

Trace records are ``{"name", "span_id", "parent_id", "thread", "pid",
"start", "seconds", "attrs"}`` with ``start`` measured from the process
trace epoch.  Child processes (forked workers) write to
``<path>.<pid>`` so concurrent workers never interleave one file.
"""

from __future__ import annotations

import atexit
import itertools
import json
import multiprocessing
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

from repro.obs import metrics as _metrics

__all__ = [
    "Span",
    "clear_trace",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "span",
    "trace_records",
    "tracing",
]

#: Retained in-memory trace records; older records drop off the front.
TRACE_BUFFER = 100_000

#: Environment variable that switches tracing on at import time.
TRACE_ENV = "REPRO_TRACE"

_IDS = itertools.count(1)
_EPOCH = time.perf_counter()
_LOCAL = threading.local()

_ENABLED = False
_SINK_LOCK = threading.Lock()
_RECORDS: deque[dict] = deque(maxlen=TRACE_BUFFER)
_FILE = None
_FILE_PATH: "str | None" = None
_FILE_PID: "int | None" = None


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _sanitize(value):
    """Coerce an attribute value to a JSON-serialisable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _sanitize(item())
        except (TypeError, ValueError):
            # Non-scalar ``.item`` (e.g. a multi-element array): fall
            # back to the generic string form below.
            return str(value)
    return str(value)


class Span:
    """One timed, attributed region; use via :func:`span` as a context manager."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "seconds", "start", "_t0")

    def __init__(self, name: str, parent_id: "int | None", attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_IDS)
        self.parent_id = parent_id
        self.seconds = 0.0
        self.start = 0.0
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (chunk counts, bytes, ...)."""
        self.attrs.update(attrs)
        return self

    def elapsed(self) -> float:
        """Seconds since the span was entered (without closing it)."""
        return time.perf_counter() - self._t0

    def __enter__(self) -> "Span":
        stack = _stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self._t0 = time.perf_counter()
        self.start = self._t0 - _EPOCH
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - unbalanced exit ordering
            stack.remove(self)
        _metrics.observe(f"{self.name}.seconds", self.seconds)
        if _ENABLED:
            _record(self)


def span(name: str, parent: "Span | None" = None, **attrs) -> Span:
    """Open a span named ``name`` with the given attributes.

    ``parent`` links a span to one opened in *another* thread; within a
    thread, nesting is automatic via the per-thread span stack.  Names
    follow the metric convention (dotted lowercase); every span feeds a
    ``<name>.seconds`` duration histogram in the process-wide registry.
    """
    return Span(name, None if parent is None else parent.span_id, attrs)


def current_span() -> "Span | None":
    """The innermost open span on this thread, or ``None``."""
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


def enable(trace_path: "str | os.PathLike | None" = None) -> None:
    """Switch trace recording on, optionally writing a JSON-lines file.

    Without ``trace_path`` records only accumulate in the in-memory
    buffer (:func:`trace_records`).  With a path, each span appends one
    line as it closes (line-buffered, so a crashed process still leaves
    a usable trace).  In a child process (a forked worker) the
    file is opened as ``<path>.<pid>`` so workers never share a file.
    Calling :func:`enable` again replaces the previous sink.
    """
    global _ENABLED, _FILE, _FILE_PATH, _FILE_PID
    with _SINK_LOCK:
        if _FILE is not None:
            _FILE.close()
            _FILE = None
        _FILE_PATH = None
        _FILE_PID = None
        if trace_path is not None:
            path = os.fspath(trace_path)
            if multiprocessing.parent_process() is not None:
                path = f"{path}.{os.getpid()}"
            _FILE = open(path, "w", encoding="utf-8", buffering=1)
            _FILE_PATH = path
            _FILE_PID = os.getpid()
        _ENABLED = True


def disable() -> None:
    """Switch trace recording off and close the trace file (if any).

    Safe to call while spans are in flight: a span closing after the
    sink closed drops its record instead of raising.  The in-memory
    buffer is kept until :func:`clear_trace`.
    """
    global _ENABLED, _FILE, _FILE_PATH, _FILE_PID
    with _SINK_LOCK:
        _ENABLED = False
        if _FILE is not None:
            _FILE.close()
        _FILE = None
        _FILE_PATH = None
        _FILE_PID = None


def enabled() -> bool:
    """Whether trace recording is currently on."""
    # reprolint: allow[lock-discipline] lock-free boolean read; _record re-checks under the lock
    return _ENABLED


def trace_records() -> list[dict]:
    """Copy of the in-memory trace buffer (oldest first)."""
    with _SINK_LOCK:
        return list(_RECORDS)


def clear_trace() -> None:
    """Empty the in-memory trace buffer."""
    with _SINK_LOCK:
        _RECORDS.clear()


@contextmanager
def tracing(trace_path: "str | os.PathLike | None" = None):
    """Scoped tracing: enable on entry, disable on exit.

    Yields the path the current process is writing to (``None`` for
    in-memory-only tracing)::

        with tracing("trace.jsonl"):
            field = repro.emulate(emulator, n_times=4, seed=0)
    """
    enable(trace_path)
    try:
        with _SINK_LOCK:
            path = _FILE_PATH
        yield path
    finally:
        disable()


def _record(sp: Span) -> None:
    """Append one closed span to the buffer and the file sink."""
    global _FILE, _FILE_PATH, _FILE_PID
    record = {
        "name": sp.name,
        "span_id": sp.span_id,
        "parent_id": sp.parent_id,
        "thread": threading.current_thread().name,
        "pid": os.getpid(),
        "start": sp.start,
        "seconds": sp.seconds,
        "attrs": {key: _sanitize(value) for key, value in sp.attrs.items()},
    }
    line = json.dumps(record, sort_keys=True)
    with _SINK_LOCK:
        if not _ENABLED:
            return
        _RECORDS.append(record)
        if _FILE is None:
            return
        if _FILE_PID != os.getpid():
            # Inherited across fork: give this process its own file.
            base = _FILE_PATH
            _FILE = open(f"{base}.{os.getpid()}", "a", encoding="utf-8", buffering=1)
            _FILE_PATH = f"{base}.{os.getpid()}"
            _FILE_PID = os.getpid()
        _FILE.write(line + "\n")


atexit.register(disable)

_env = os.environ.get(TRACE_ENV)
if _env:
    enable(None if _env in {"1", "true", "yes"} else _env)
del _env
