"""The on-demand emulation service.

:class:`EmulationService` turns a fitted emulator artifact into a field
*server*: callers hand it frozen :class:`~repro.serving.request.FieldRequest`
objects and get back the requested array, synthesized only when no tier
already holds it.  Three tiers answer a request, cheapest first:

1. an in-process, bytes-capped LRU of model-year chunks (full grid, one
   entry per ``(scenario, realization, year)`` content-address);
2. an optional persistent :class:`~repro.storage.chunkstore.ChunkStore`
   (read-through on miss, write-through on synthesis);
3. synthesis through the one generation path,
   :meth:`EmulationGenerator.generate_stream_multi
   <repro.core.generator.EmulationGenerator.generate_stream_multi>` —
   with single-flight locking (concurrent identical requests compute
   once) and request coalescing (same-scenario requests pending while
   a synthesis is in flight advance together as one batch).

Determinism contract
--------------------
Realization ``r`` of a scenario draws from
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))``
— the identical stream realization ``r`` of every
:func:`repro.run_campaign` scenario uses — and is synthesized as the **canonical
year-chunked stream**: ``emulate_stream(chunk_size=steps_per_year)``.
Year ``y`` of that stream depends only on years ``<= y`` (the draw
schedule is fixed per model year), so chunks are *prefix-compatible*:
the same year served from a short request, a long request, a resumed
stream or a coalesced batch is bit-identical.  Consequently
``service.get(request)``:

* equals ``emulator.emulate(...)`` **bit for bit** for any single-year
  request and for any request with ``include_nugget=False``;
* equals the concatenated ``emulator.emulate_stream(...)`` year chunks
  bit for bit for every request;
* is identical on the cold and cached paths (the cache stores exactly
  what synthesis produced, at full float64).

(The monolithic ``emulate`` call draws its nugget *after* all
innovations, so for multi-year nuggeted records its bits depend on the
total length — no chunk-cached server can match that shape and still
share chunks across requests; the year-chunked stream is the canonical
schedule, and it is what campaigns already write.)

A lossy (quantized) chunk store is the one opt-out: chunks served from
an ``int16``/``float32`` store carry that tier's measured
``max_abs_error`` (see ``stats()["store"]``) instead of bit-equality.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from repro.api.facade import _resolve as _resolve_emulator
from repro.core.emulator import ClimateEmulator
from repro.obs import MetricsRegistry, span
from repro.serving.request import FieldRequest, chunk_address
from repro.storage.chunkstore import ChunkStore

__all__ = ["EmulationService", "DEFAULT_CACHE_BYTES"]

#: Default in-memory chunk-cache budget (bytes).
DEFAULT_CACHE_BYTES = 256 * 2**20


def _service_registry() -> MetricsRegistry:
    """A fresh per-instance metrics registry.

    :class:`~repro.obs.MetricsRegistry` carries its own internal lock,
    so hot paths count events on it without holding the service lock —
    it is a thread-safe handle, not service-lock-protected state.
    """
    return MetricsRegistry()


class _ChunkCache:
    """Bytes-capped LRU of content-addressed chunks.

    Not thread-safe on its own: every access happens under the owning
    service's lock.  Eviction may drop the entry being inserted (a cache
    smaller than one chunk); correctness never depends on retention —
    synthesis results reach waiters through the flight, not the cache.
    """

    def __init__(self, max_bytes: "int | None", metrics: MetricsRegistry):
        if max_bytes is not None and int(max_bytes) < 0:
            raise ValueError("cache_bytes must be >= 0 (or None for unlimited)")
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.bytes = 0
        # Hit/miss/eviction counts live on the owning service's metrics
        # registry; ``bytes``/``entries`` stay real state because the
        # eviction loop reads them.
        self._metrics = metrics

    def get(self, address: str) -> "np.ndarray | None":
        array = self._entries.get(address)
        if array is None:
            self._metrics.add("serving.chunk_cache.misses")
            return None
        self._entries.move_to_end(address)
        self._metrics.add("serving.chunk_cache.hits")
        return array

    def put(self, address: str, array: np.ndarray) -> None:
        if address in self._entries:
            self._entries.move_to_end(address)
            return
        self._entries[address] = array
        self.bytes += array.nbytes
        if self.max_bytes is None:
            return
        while self.bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.nbytes
            self._metrics.add("serving.chunk_cache.evictions")

    def __contains__(self, address: str) -> bool:
        return address in self._entries

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": int(self._metrics.counter("serving.chunk_cache.hits")),
            "misses": int(self._metrics.counter("serving.chunk_cache.misses")),
            "evictions": int(self._metrics.counter("serving.chunk_cache.evictions")),
        }


class _Flight:
    """One in-flight synthesis for a scenario stream family.

    ``needs`` maps ``realization -> stop_year`` ("chunks ``[0, stop)``
    must exist afterwards"); it stays open for coalescing until the
    leader snapshots it at synthesis start (``running``).  Requests that
    arrive while the leader is running pool into ``next`` — the
    successor flight whose leader waits for this one, then synthesizes
    the whole accumulated batch.
    """

    __slots__ = ("needs", "running", "done", "results", "error", "next")

    def __init__(self):
        self.needs: dict[int, int] = {}
        self.running = False
        self.done = threading.Event()
        self.results: dict[str, np.ndarray] = {}
        self.error: "BaseException | None" = None
        self.next: "_Flight | None" = None

    def covers(self, realization: int, stop: int) -> bool:
        return self.needs.get(realization, 0) >= stop


class _LiveStream:
    """A paused canonical stream, resumable at ``next_year``."""

    __slots__ = ("iterator", "next_year", "horizon")

    def __init__(self, iterator, next_year: int, horizon: int):
        self.iterator = iterator
        self.next_year = next_year
        self.horizon = horizon


class EmulationService:
    """Request-addressed field serving over a fitted emulator.

    Parameters
    ----------
    source:
        A fitted :class:`~repro.core.emulator.ClimateEmulator` or the
        path of a saved artifact.
    seed:
        Root entropy of the service.  Realization ``r`` always draws
        from ``SeedSequence(seed, spawn_key=(r,))``, so every served
        field is a pure function of ``(artifact, seed, request)``.
    cache_bytes:
        Budget of the in-memory chunk LRU (``None`` for unlimited,
        default 256 MiB).
    store:
        Optional persistent :class:`~repro.storage.chunkstore.ChunkStore`
        used read-through/write-through.  A lossless (float64) store
        preserves bit-exactness across processes; a quantized store
        trades that for 4x smaller shards and reports its measured
        ``max_abs_error``.
    stream_horizon_years:
        Minimum horizon synthesis streams are opened with.  Opening
        longer than requested costs nothing (streams are lazy) and lets
        a follow-up request for later years *resume* instead of
        restarting from year 0.  Output bits never depend on it.
    max_streams:
        How many paused streams to keep resumable (LRU; 0 disables
        resumption — every extension restarts from year 0).

    Examples
    --------
    >>> import repro                                   # doctest: +SKIP
    >>> service = repro.serve("emulator.npz", seed=0)  # doctest: +SKIP
    >>> field = service.get(repro.FieldRequest("ssp-high", realization=3,
    ...                                        year_start=0, year_stop=5))  # doctest: +SKIP
    """

    def __init__(
        self,
        source,
        *,
        seed: int = 0,
        cache_bytes: "int | None" = DEFAULT_CACHE_BYTES,
        store: "ChunkStore | None" = None,
        stream_horizon_years: int = 32,
        max_streams: int = 8,
    ):
        emulator = _resolve_emulator(source)
        if not emulator.is_fitted or emulator.training_summary is None:
            raise RuntimeError("EmulationService needs a fitted emulator")
        if store is not None and not isinstance(store, ChunkStore):
            raise TypeError(f"store must be a ChunkStore, got {type(store).__name__}")
        if int(stream_horizon_years) < 0:
            raise ValueError("stream_horizon_years must be >= 0")
        if int(max_streams) < 0:
            raise ValueError("max_streams must be >= 0")
        self._emulator = emulator
        self._summary = emulator.training_summary
        self._seed = int(seed)
        self._store = store
        self._stream_horizon_years = int(stream_horizon_years)
        self._max_streams = int(max_streams)
        if isinstance(source, (str, os.PathLike)):
            self._artifact_bytes = os.path.getsize(os.fspath(source))
        else:
            self._artifact_bytes = emulator.measured_artifact_bytes()

        self._lock = threading.Lock()
        # Every counter of this service lives on a per-instance metrics
        # registry (two services never conflate counts); ``stats()`` is
        # the back-compat view over it.
        self._metrics = _service_registry()
        self._cache = _ChunkCache(cache_bytes, self._metrics)
        self._flights: dict[str, _Flight] = {}
        self._streams: "OrderedDict[tuple[str, int], _LiveStream]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def emulator(self) -> ClimateEmulator:
        """The fitted emulator being served (treat as read-only)."""
        return self._emulator

    @property
    def grid(self):
        """The served spatial grid."""
        return self._summary.grid

    @property
    def steps_per_year(self) -> int:
        """Time steps per model year (the chunk granularity)."""
        return int(self._summary.steps_per_year)

    @property
    def seed(self) -> int:
        """Root entropy; realization ``r`` uses spawn key ``(r,)``."""
        return self._seed

    @property
    def metrics(self) -> MetricsRegistry:
        """This service's metrics registry (:meth:`stats` is a view over it)."""
        return self._metrics

    def stats(self) -> dict:
        """Hit/miss/bytes/synthesis counters across every tier.

        ``synthesis["flights"]`` counts synthesis passes: N concurrent
        identical requests increment it once (single flight), and
        same-scenario requests coalesced into one batch also increment
        it once (``batched_flights`` / ``coalesced_realizations`` break
        that down).
        """
        metrics = self._metrics

        def count(name: str) -> int:
            return int(metrics.counter(name))

        with self._lock:
            summary = {
                "seed": self._seed,
                "steps_per_year": self.steps_per_year,
                "artifact_bytes": self._artifact_bytes,
                "requests": count("serving.requests"),
                "request_hits": count("serving.request_hits"),
                "request_misses": count("serving.request_misses"),
                "served_bytes": count("serving.served_bytes"),
                "store_chunk_hits": count("serving.store_chunk_hits"),
                "chunk_cache": self._cache.stats(),
                "synthesis": {
                    "flights": count("serving.synthesis.flights"),
                    "batched_flights": count("serving.synthesis.batched_flights"),
                    "coalesced_realizations": count(
                        "serving.synthesis.coalesced_realizations"
                    ),
                    "coalesced_waits": count("serving.synthesis.coalesced_waits"),
                    "chunks": count("serving.synthesis.chunks"),
                    "seconds": metrics.counter("serving.synthesis.seconds"),
                    "stream_resumes": count("serving.synthesis.stream_resumes"),
                    "live_streams": len(self._streams),
                },
            }
        store = self._store
        summary["store"] = store.stats() if store is not None else None
        return summary

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def get(self, request: FieldRequest) -> np.ndarray:
        """Serve one request; synthesizes only what no tier already holds.

        Returns
        -------
        numpy.ndarray
            ``float64`` of shape ``(n_years * steps_per_year, nlat,
            nlon)`` — the windowed shape when the request carries a
            window, the full grid otherwise.  A fresh array the caller
            may mutate freely.  Bit-identical on cold and cached paths;
            see the module docstring for the exact ``emulate``
            equivalences.
        """
        if not isinstance(request, FieldRequest):
            raise TypeError(
                f"expected a FieldRequest, got {type(request).__name__}"
            )
        if request.window is not None:
            request.window.validate_for(self.grid)
        spec = request.resolve_spec()
        stream_addr = request.stream_address()
        addresses = {
            year: chunk_address(stream_addr, request.realization, year)
            for year in request.years
        }
        self._metrics.add("serving.requests")
        with span(
            "serve.get",
            scenario=request.scenario,
            realization=request.realization,
            years=len(addresses),
        ) as sp:
            chunks: dict[int, np.ndarray] = {}
            first_pass = True
            while True:
                missing = self._collect(addresses, chunks)
                if first_pass:
                    first_pass = False
                    outcome = "miss" if missing else "hit"
                    self._metrics.add(
                        "serving.request_misses" if missing
                        else "serving.request_hits"
                    )
                    sp.set(outcome=outcome)
                if not missing:
                    result = self._assemble(request, chunks)
                    sp.set(bytes=result.nbytes)
                    return result
                role, flight, predecessor = self._join(
                    stream_addr, request.realization, max(missing) + 1
                )
                if role == "lead":
                    self._run_flight(
                        flight, stream_addr, spec, request.include_nugget
                    )
                elif role == "lead_after":
                    predecessor.done.wait()
                    self._run_flight(
                        flight, stream_addr, spec, request.include_nugget
                    )
                else:
                    self._metrics.add("serving.synthesis.coalesced_waits")
                    flight.done.wait()
                if flight.error is not None:
                    raise RuntimeError(
                        f"chunk synthesis failed for stream {stream_addr[:12]}..."
                    ) from flight.error
                for year, address in addresses.items():
                    if year not in chunks and address in flight.results:
                        chunks[year] = flight.results[address]
                # Anything still missing (a need that arrived after the
                # leader's snapshot, or an eviction race) is retried: the
                # next loop iteration re-checks every tier and, if
                # needed, joins or leads a fresh flight.

    # ------------------------------------------------------------------ #
    # Tier lookups
    # ------------------------------------------------------------------ #
    def _collect(
        self, addresses: dict[int, str], chunks: dict[int, np.ndarray]
    ) -> list[int]:
        """Fill ``chunks`` from cache then store; returns missing years."""
        pending: list[int] = []
        with self._lock:
            for year, address in addresses.items():
                if year in chunks:
                    continue
                array = self._cache.get(address)
                if array is not None:
                    chunks[year] = array
                else:
                    pending.append(year)
        store = self._store
        if store is None or not pending:
            return sorted(pending)
        missing: list[int] = []
        for year in sorted(pending):
            array = store.get(addresses[year])  # disk read, outside the lock
            if array is None:
                missing.append(year)
                continue
            array.setflags(write=False)
            chunks[year] = array
            self._metrics.add("serving.store_chunk_hits")
            with self._lock:
                self._cache.put(addresses[year], array)
        return missing

    def _assemble(self, request: FieldRequest, chunks: dict[int, np.ndarray]) -> np.ndarray:
        fields = np.concatenate([chunks[year] for year in request.years], axis=0)
        if request.window is not None:
            fields = np.ascontiguousarray(request.window.extract(fields))
        self._metrics.add("serving.served_bytes", fields.nbytes)
        return fields

    # ------------------------------------------------------------------ #
    # Single-flight / coalescing
    # ------------------------------------------------------------------ #
    def _join(
        self, stream_addr: str, realization: int, stop: int
    ) -> "tuple[str, _Flight, _Flight | None]":
        """Join or create the flight covering ``chunks [0, stop)`` of ``r``.

        Returns ``(role, flight, predecessor)`` with role ``"lead"``
        (synthesize now), ``"lead_after"`` (synthesize once
        ``predecessor`` finishes — the coalescing window: needs pooling
        into this flight while the predecessor runs become one batch) or
        ``"wait"`` (an existing flight already covers the need).
        """
        with self._lock:
            head = self._flights.get(stream_addr)
            if head is None:
                flight = _Flight()
                flight.needs[realization] = stop
                self._flights[stream_addr] = flight
                return "lead", flight, None
            if not head.running:
                # Pending flight (its leader is about to run, or is a
                # successor waiting on its predecessor): still open.
                head.needs[realization] = max(head.needs.get(realization, 0), stop)
                return "wait", head, None
            if head.covers(realization, stop):
                return "wait", head, None
            successor = head.next
            if successor is None:
                successor = head.next = _Flight()
                successor.needs[realization] = stop
                return "lead_after", successor, head
            successor.needs[realization] = max(
                successor.needs.get(realization, 0), stop
            )
            return "wait", successor, None

    def _run_flight(
        self, flight: _Flight, stream_addr: str, spec, include_nugget: bool
    ) -> None:
        """Leader path: snapshot needs, synthesize, publish, hand over."""
        with self._lock:
            flight.running = True
            needs = dict(flight.needs)
        flight_span = span(
            "serve.flight", stream=stream_addr[:12], realizations=len(needs)
        )
        results: dict[str, np.ndarray] = {}
        try:
            with flight_span:
                results = self._synthesize(
                    stream_addr, spec, include_nugget, needs
                )
                flight_span.set(chunks=len(results))
        except BaseException as error:
            flight.error = error
            raise
        finally:
            metrics = self._metrics
            metrics.add("serving.synthesis.flights")
            metrics.add("serving.synthesis.chunks", len(results))
            metrics.add("serving.synthesis.seconds", flight_span.elapsed())
            if len(needs) > 1:
                metrics.add("serving.synthesis.batched_flights")
                metrics.add(
                    "serving.synthesis.coalesced_realizations", len(needs) - 1
                )
            with self._lock:
                for address, array in results.items():
                    self._cache.put(address, array)
                flight.results = results
                if self._flights.get(stream_addr) is flight:
                    if flight.next is not None:
                        self._flights[stream_addr] = flight.next
                    else:
                        del self._flights[stream_addr]
            # Waiters are released before the write-through: they read
            # flight.results from memory, so persistence I/O (one batched
            # manifest write) never sits on their latency path.
            flight.done.set()
            store = self._store
            if store is not None and results:
                store.put_many(results)

    # ------------------------------------------------------------------ #
    # Synthesis
    # ------------------------------------------------------------------ #
    def _realization_rng(self, realization: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self._seed, spawn_key=(int(realization),))
        return np.random.default_rng(seq)

    def _missing_jobs(
        self, stream_addr: str, needs: dict[int, int]
    ) -> "dict[int, tuple[int, int]]":
        """Per realization: ``(first_missing_year, stop)`` of real gaps."""
        store = self._store
        jobs: dict[int, tuple[int, int]] = {}
        for realization, stop in sorted(needs.items()):
            first_missing = None
            for year in range(stop):
                address = chunk_address(stream_addr, realization, year)
                with self._lock:
                    cached = address in self._cache
                if cached or (store is not None and address in store):
                    continue
                first_missing = year
                break
            if first_missing is not None:
                jobs[realization] = (first_missing, stop)
        return jobs

    def _synthesize(
        self, stream_addr: str, spec, include_nugget: bool, needs: dict[int, int]
    ) -> dict[str, np.ndarray]:
        """Produce every missing chunk implied by ``needs``.

        The realizations with real gaps advance together through the
        one generation path (one VAR recursion + inverse SHT per year
        chunk for the whole batch), each drawing only from its own
        generator, so every member is bit-identical to its batch-of-one
        stream.  A batch of one with a resumable live stream continues
        from its pause point and is parked again afterwards; everything
        else synthesizes the canonical stream from year 0.
        """
        jobs = self._missing_jobs(stream_addr, needs)
        if not jobs:
            return {}
        realizations = sorted(jobs)
        stop = max(job_stop for _, job_stop in jobs.values())
        # Only a batch of one is parked: its key names the one stream a
        # follow-up request for later years can resume.
        key = (stream_addr, realizations[0]) if len(realizations) == 1 else None
        live = None
        if key is not None:
            with self._lock:
                live = self._streams.pop(key, None)
            first_missing = jobs[realizations[0]][0]
            if live is not None and (
                live.next_year > first_missing or live.horizon < stop
            ):
                live = None
        if live is not None:
            self._metrics.add("serving.synthesis.stream_resumes")
        else:
            horizon = max(stop, self._stream_horizon_years)
            spy = self.steps_per_year
            iterator = self._emulator.generator().generate_stream_multi(
                [self._realization_rng(r) for r in realizations],
                n_times=horizon * spy,
                annual_forcing=spec.annual_forcing(horizon),
                include_nugget=include_nugget,
                start_year=self._summary.start_year,
                chunk_size=spy,
            )
            live = _LiveStream(iterator, next_year=0, horizon=horizon)
        results: dict[str, np.ndarray] = {}
        while live.next_year < stop:
            chunk = next(live.iterator)
            for member, realization in enumerate(realizations):
                array = np.ascontiguousarray(chunk.data[member])
                array.setflags(write=False)
                results[chunk_address(stream_addr, realization, live.next_year)] = array
            live.next_year += 1
        if key is not None and live.next_year < live.horizon and self._max_streams > 0:
            with self._lock:
                self._streams[key] = live
                self._streams.move_to_end(key)
                while len(self._streams) > self._max_streams:
                    self._streams.popitem(last=False)
        return results
