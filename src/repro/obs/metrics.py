"""Thread-safe metrics registry: counters, gauges and histograms.

The registry is the *numeric* half of the telemetry layer (the tracing
half lives in :mod:`repro.obs.tracing`).  It holds three instrument
kinds, all keyed by dotted lowercase names (``sht.plan_cache.hits``):

* **counters** — monotonically accumulating floats (``add``);
* **gauges** — last-value-wins floats (``set_gauge``);
* **histograms** — value distributions (``observe``) that retain a
  bounded window of recent samples for percentile summaries alongside
  exact ``count``/``sum``/``min``/``max`` over *all* samples.

A name is bound to one kind for the registry's lifetime; observing a
counter name as a histogram raises, which is what keeps snapshots
machine-comparable across PRs (the ``telemetry-hygiene`` lint rule
enforces the same property statically).

The module-level registry (:func:`get_registry`) is process-wide and is
what the plan cache, the SHT transforms, the chunk store and the spans'
automatic duration histograms write to.  Components with per-instance
statistics (each :class:`~repro.serving.service.EmulationService`)
construct their own :class:`MetricsRegistry` so two services never
conflate counts.

Metrics are **always on**: they are a handful of dict operations under a
lock per event, they never influence emitted arrays, and back-compat
surfaces (``EmulationService.stats()``, ``plan_cache_stats()``) read
from them unconditionally.  Only *trace recording* has an on/off switch.
"""

from __future__ import annotations

import re
import threading
from collections import deque

__all__ = [
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "counter_add",
    "gauge_set",
    "get_registry",
    "metrics_snapshot",
    "observe",
    "reset_metrics",
]

#: Instrument names are dotted lowercase with at least two segments.
METRIC_NAME_RE = re.compile(r"[a-z0-9_]+(\.[a-z0-9_]+)+")

#: Retained samples per histogram; percentiles summarise this window.
HISTOGRAM_WINDOW = 4096


class MetricsRegistry:
    """A process- or instance-scoped set of named instruments.

    Every method is safe to call from any thread; a single lock guards
    the instrument maps (events are tiny, so one lock beats per-name
    locks in both simplicity and measured overhead).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- write side ------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        """Increment counter ``name`` by ``value`` (creating it at 0)."""
        with self._lock:
            self._check_kind_locked(name, self._counters)
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._check_kind_locked(name, self._gauges)
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        with self._lock:
            self._check_kind_locked(name, self._histograms)
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(float(value))

    # -- read side -------------------------------------------------------

    def counter(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name`` (``default`` when absent)."""
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Current value of gauge ``name`` (``default`` when absent)."""
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> dict:
        """Point-in-time copy of every instrument, JSON-serialisable.

        ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: summary}}`` where each histogram summary has
        ``count``/``sum``/``min``/``max``/``mean`` over all samples and
        ``p50``/``p90``/``p99`` over the retained window (the most recent
        ``HISTOGRAM_WINDOW`` observations).
        """
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.summary()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def reset(self, prefix: "str | None" = None) -> None:
        """Remove instruments (all of them, or those under ``prefix.``).

        ``reset("sht.plan_cache")`` drops ``sht.plan_cache.hits`` but not
        ``sht.forward.seconds`` — the granularity ``clear_plan_cache``
        needs without erasing unrelated components' counts.
        """
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                return
            dot = prefix + "."
            for table in (self._counters, self._gauges, self._histograms):
                for name in [n for n in table if n == prefix or n.startswith(dot)]:
                    del table[name]

    # -- internals -------------------------------------------------------

    def _check_kind_locked(self, name: str, own_table: dict) -> None:
        """Validate the name and reject cross-kind reuse (lock held)."""
        if name not in own_table:
            if not METRIC_NAME_RE.fullmatch(name):
                raise ValueError(
                    f"metric name {name!r} is not dotted lowercase "
                    "(expected e.g. 'sht.plan_cache.hits')"
                )
            for table in (self._counters, self._gauges, self._histograms):
                if table is not own_table and name in table:
                    raise ValueError(
                        f"metric name {name!r} is already registered as a "
                        "different instrument kind"
                    )


class _Histogram:
    """Exact totals plus a bounded window of recent samples."""

    __slots__ = ("count", "total", "min", "max", "window")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.window: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.window.append(value)

    def summary(self) -> dict:
        if not self.count:  # pragma: no cover - empty histograms are never kept
            return {"count": 0}
        ordered = sorted(self.window)
        last = len(ordered) - 1
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": ordered[int(round(0.50 * last))],
            "p90": ordered[int(round(0.90 * last))],
            "p99": ordered[int(round(0.99 * last))],
        }


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry shared by all module-level helpers."""
    return _GLOBAL


def counter_add(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` on the process-wide registry."""
    _GLOBAL.add(name, value)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` on the process-wide registry."""
    _GLOBAL.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` on the process-wide registry."""
    _GLOBAL.observe(name, value)


def metrics_snapshot() -> dict:
    """Snapshot of the process-wide registry (see :meth:`MetricsRegistry.snapshot`)."""
    return _GLOBAL.snapshot()


def reset_metrics(prefix: "str | None" = None) -> None:
    """Reset the process-wide registry (see :meth:`MetricsRegistry.reset`)."""
    _GLOBAL.reset(prefix)
