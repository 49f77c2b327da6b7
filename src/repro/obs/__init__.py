"""Unified telemetry: tracing spans + metrics registry for every hot path.

The observability layer the serving gateway and the campaign pilot
(``tune="auto"``) read their timings from.  It has two halves:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and histograms with dotted lowercase names (``sht.plan_cache.hits``).
  Always on; `EmulationService.stats()` and ``plan_cache_stats()`` are
  back-compat views over it.
* :mod:`repro.obs.tracing` — hierarchical spans
  (``with span("fit.analysis", lmax=48):``) that nest per thread, link
  across threads via ``parent=``, carry structured attributes (bytes,
  shapes, cache outcomes, flop estimates) and export JSON-lines traces
  for :mod:`tools.tracereport`.

On top sits the *operational* half:

* :mod:`repro.obs.export` — Prometheus/JSON rendering of registry
  snapshots and :func:`start_metrics_server` serving ``/metrics``,
  ``/healthz`` and ``/readyz`` from a daemon thread;
* :mod:`repro.obs.sampler` — :class:`ResourceSampler`, a background
  resource watchdog publishing ``resource.*`` gauges (RSS, open fds,
  threads, cache and store footprints) on an interval;
* :mod:`repro.obs.slo` — :class:`SLO` objectives over named latency
  histograms, evaluated by :func:`evaluate_slos` and surfaced as
  ``EmulationService.slo_report()``.

Telemetry is contractually **bit-inert** (arrays are bit-identical with
tracing on, off, or toggled mid-run) and **near-free when disabled**
(<2% on the batched-synthesis path, gated by
``benchmarks/bench_telemetry_overhead.py``).

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

from repro.obs.export import (
    MetricsServer,
    clear_readiness,
    components_ready,
    mark_ready,
    readiness,
    render_json,
    render_prometheus,
    start_metrics_server,
)
from repro.obs.metrics import (
    METRIC_NAME_RE,
    MetricsRegistry,
    counter_add,
    gauge_set,
    get_registry,
    metrics_snapshot,
    observe,
    reset_metrics,
)
from repro.obs.sampler import ResourceSampler
from repro.obs.slo import DEFAULT_SERVING_SLOS, SLO, evaluate_slos
from repro.obs.tracing import (
    Span,
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
    "DEFAULT_SERVING_SLOS",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "MetricsServer",
    "ResourceSampler",
    "SLO",
    "Span",
    "clear_readiness",
    "clear_trace",
    "components_ready",
    "counter_add",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "evaluate_slos",
    "gauge_set",
    "get_registry",
    "mark_ready",
    "metrics_snapshot",
    "observe",
    "readiness",
    "render_json",
    "render_prometheus",
    "reset_metrics",
    "span",
    "start_metrics_server",
    "trace_records",
    "tracing",
]
