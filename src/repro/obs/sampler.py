"""Resource watchdog: a background thread publishing process gauges.

Long campaigns and long-lived serving processes fail operationally
before they fail numerically — RSS creeps until the OOM killer fires,
file descriptors leak, caches grow past their budgets.
:class:`ResourceSampler` watches for that: a daemon thread that, on an
interval, publishes process-level gauges into the metrics registry
(and therefore onto a live ``/metrics`` endpoint, see
:mod:`repro.obs.export`)::

    from repro.obs import ResourceSampler

    with ResourceSampler(interval_seconds=5.0, service=service):
        ...  # resource.* gauges update every 5 s while this runs

Published gauges (all prefixed ``resource.``):

* ``resource.rss_bytes`` — process resident set size;
* ``resource.open_fds`` — open file descriptors (where ``/proc`` is
  available; omitted otherwise);
* ``resource.threads`` — live Python threads;
* ``resource.plan_cache_bytes`` — SHT plan-cache footprint
  (:func:`repro.sht.plancache.plan_cache_stats`);
* ``resource.chunk_cache_bytes`` — the attached service's in-memory
  chunk LRU footprint;
* ``resource.store_bytes`` / ``resource.store_chunks`` — the attached
  :class:`~repro.storage.chunkstore.ChunkStore`'s persisted footprint;
* ``resource.pid`` — the sampling process id;

plus a ``resource.samples`` counter (one per sweep).

Sampling is *per process*: the registry is process-wide but not shared
across forks, so each worker process that wants
resource gauges starts its own sampler (cheap — one daemon thread) and
``resource.pid`` tells a scraper whose numbers it is reading.  Sampling
only reads OS counters and cache statistics — it never touches emitter
state, so the bit-inertness contract holds with the sampler on, off, or
toggled mid-run.

Probing uses raw OS interfaces (``/proc``, :func:`resource.getrusage`)
by design; the ``telemetry-hygiene`` lint rule permits those calls here
— inside ``src/repro/obs/`` — and bans them elsewhere in the library.
"""

from __future__ import annotations

import os
import resource as _resource
import threading

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ResourceSampler"]

#: Gauge-name prefix for every published sample.
_PREFIX = "resource"


def _rss_bytes_fallback() -> "int | None":
    """Peak RSS via getrusage (kilobytes on Linux) where /proc is absent."""
    try:
        return _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss * 1024
    except OSError:
        return None


def _rss_bytes() -> "int | None":
    """Resident set size in bytes, or ``None`` if unprobeable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return _rss_bytes_fallback()


def _open_fds() -> "int | None":
    """Open file-descriptor count, or ``None`` where /proc is absent."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


class ResourceSampler:
    """Background thread publishing ``resource.*`` gauges on an interval.

    Parameters
    ----------
    interval_seconds:
        Seconds between sweeps (must be positive).  ``start()`` takes
        one sample immediately, so gauges exist before the first
        interval elapses.
    registry:
        Registry to publish into (the process-wide one by default).
    service:
        Optional :class:`~repro.serving.service.EmulationService`; when
        attached, its chunk-cache footprint (and its store's, if any)
        are sampled too.
    store:
        Optional :class:`~repro.storage.chunkstore.ChunkStore` to
        sample directly (takes precedence over the service's store).

    The sampler is a context manager (``start`` on enter, ``stop`` on
    exit); ``start``/``stop`` are idempotent and the thread is a daemon,
    so a forgotten sampler never blocks interpreter exit.
    """

    def __init__(
        self,
        interval_seconds: float = 5.0,
        *,
        registry: "MetricsRegistry | None" = None,
        service=None,
        store=None,
    ):
        if not float(interval_seconds) > 0.0:
            raise ValueError(
                f"interval_seconds must be positive, got {interval_seconds!r}"
            )
        self._interval = float(interval_seconds)
        self._registry = get_registry() if registry is None else registry
        self._service = service
        self._store = store
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def sample_once(self) -> dict:
        """Take one sweep now and return the published ``{gauge: value}``."""
        values: dict = {f"{_PREFIX}.pid": float(os.getpid())}

        rss = _rss_bytes()
        if rss is not None:
            values[f"{_PREFIX}.rss_bytes"] = float(rss)
        fds = _open_fds()
        if fds is not None:
            values[f"{_PREFIX}.open_fds"] = float(fds)
        values[f"{_PREFIX}.threads"] = float(threading.active_count())

        # Imported lazily: plancache itself imports repro.obs, so a
        # module-level import here would be circular.
        from repro.sht.plancache import plan_cache_stats

        values[f"{_PREFIX}.plan_cache_bytes"] = float(
            plan_cache_stats().get("bytes", 0)
        )

        store = self._store
        if self._service is not None:
            stats = self._service.stats()
            values[f"{_PREFIX}.chunk_cache_bytes"] = float(
                stats.get("chunk_cache", {}).get("bytes", 0)
            )
            if store is None:
                store = getattr(self._service, "_store", None)
        if store is not None:
            store_stats = store.stats()
            values[f"{_PREFIX}.store_bytes"] = float(
                store_stats.get("encoded_bytes", 0)
            )
            values[f"{_PREFIX}.store_chunks"] = float(
                store_stats.get("n_chunks", 0)
            )

        for gauge, value in values.items():
            self._registry.set_gauge(gauge, value)
        self._registry.add(f"{_PREFIX}.samples", 1)
        return values

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample_once()

    def start(self) -> "ResourceSampler":
        """Take an immediate sample and start the interval thread."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self.sample_once()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the interval thread and join it (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=10.0)
        self._thread = None

    @property
    def running(self) -> bool:
        """Whether the interval thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
