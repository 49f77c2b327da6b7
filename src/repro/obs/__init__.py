"""Unified telemetry: tracing spans + metrics registry for every hot path.

The observability layer the serving gateway and the campaign pilot
(``tune="auto"``) read their timings from.  It has two halves:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and histograms with dotted lowercase names (``sht.plan_cache.hits``).
  Always on; `EmulationService.stats()` and ``plan_cache_stats()`` are
  back-compat views over it, and :func:`metrics_snapshot` is how anyone
  else reads the numbers (latency percentiles included: every span feeds
  a ``<name>.seconds`` histogram).
* :mod:`repro.obs.tracing` — hierarchical spans
  (``with span("fit.analysis", lmax=48):``) that nest per thread, carry
  structured attributes (bytes,
  shapes, cache outcomes, flop estimates) and export JSON-lines traces
  for :mod:`tools.tracereport`.

Telemetry is **bit-inert**: arrays are bit-identical with tracing on,
off, or toggled mid-run, pinned by ``tests/obs/``.  What tracing costs
is measured, not promised: the end-to-end ledger reports
``obs.enabled_overhead_share`` under ``python3 -m benchmarks.e2e
--trace 1``.

Quick start::

    import repro.obs as obs

    with obs.tracing("trace.jsonl"):
        field = repro.emulate(emulator, n_times=4, seed=0)
    print(obs.metrics_snapshot()["counters"])

Set ``REPRO_TRACE=trace.jsonl`` in the environment to trace a whole
process without touching its code, then summarise the file with
``python tools/tracereport.py trace.jsonl``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    MetricsRegistry,
    counter_add,
    gauge_set,
    get_registry,
    metrics_snapshot,
    observe,
    reset_metrics,
)
from repro.obs.tracing import (
    clear_trace,
    current_span,
    disable,
    enable,
    enabled,
    span,
    trace_records,
    tracing,
)

__all__ = [
    "MetricsRegistry",
    "clear_trace",
    "counter_add",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "get_registry",
    "metrics_snapshot",
    "observe",
    "reset_metrics",
    "span",
    "trace_records",
    "tracing",
]
