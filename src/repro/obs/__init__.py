"""Unified telemetry: hierarchical tracing spans over every hot path.

A span (``with span("fit.analysis", lmax=48):``) times one region,
nests under the innermost open span of its thread and carries
structured attributes (bytes, shapes, cache outcomes, flop estimates).
``sp.seconds`` is always measured; while tracing is on, each closed span
is also recorded as one JSON object, in memory and optionally in a
JSON-lines file that :mod:`tools.tracereport` turns into a self-time
profile with latency percentiles.  The counters callers read are the
components' own views: ``EmulationService.stats()`` and
``plan_cache_stats()``.

Telemetry is **bit-inert**: arrays are bit-identical with tracing on,
off, or toggled mid-run, pinned by ``tests/obs/``.  What tracing costs
is measured, not promised: the end-to-end ledger reports
``obs.enabled_overhead_share`` under ``python3 -m benchmarks.e2e
--trace 1``.

Quick start::

    import repro.obs as obs

    with obs.tracing("trace.jsonl"):
        field = repro.emulate(emulator, n_times=4, seed=0)

Set ``REPRO_TRACE=trace.jsonl`` in the environment to trace a whole
process without touching its code, then summarise the file with
``python tools/tracereport.py trace.jsonl``.
"""

from __future__ import annotations

from repro.obs.tracing import (
    clear_trace,
    disable,
    enabled,
    span,
    trace_records,
    tracing,
)

__all__ = [
    "clear_trace",
    "disable",
    "enabled",
    "span",
    "trace_records",
    "tracing",
]
