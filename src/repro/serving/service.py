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
``np.random.SeedSequence(seed, spawn_key=(r,))`` — the one seeding rule,
which ``emulate(rng=seed)`` member ``r`` and realization ``r`` of every
:func:`repro.run_campaign` scenario follow too — through the one draw
schedule, one model year at a time.  Year ``y`` depends only on years
``<= y``, so chunks are *prefix-compatible*: the same year served from a
short request, a long request, a resumed stream or a coalesced batch is
bit-identical.  Consequently ``service.get(request)``:

* equals member ``r`` of ``emulator.emulate(..., rng=seed)`` (and the
  concatenated ``emulate_stream``) **bit for bit**, for every request;
* is identical on the cold, cached and stored paths (the cache and the
  store hold exactly what synthesis produced, at full float64; a lossy
  store is refused when the service opens it, and a stored chunk of
  another shape raises before it is cached or served).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from repro.api.facade import _resolve as _resolve_emulator
from repro.core.emulator import ClimateEmulator
from repro.core.generator import _member_rngs
from repro.obs import span
from repro.serving.request import FieldRequest
from repro.storage.address import chunk_address
from repro.storage.chunkstore import ChunkStore, _open_store, _read_chunk

__all__ = ["EmulationService", "DEFAULT_CACHE_BYTES"]

#: Default in-memory chunk-cache budget (bytes).
DEFAULT_CACHE_BYTES = 256 * 2**20

#: Minimum horizon, in model years, a synthesis stream is opened with.
#: Opening longer than requested costs nothing (streams are lazy) and
#: lets a follow-up request for later years *resume* instead of
#: restarting from year 0.  Output bits never depend on it.
_STREAM_HORIZON = 32

#: How many paused streams stay resumable (least recently parked first
#: out).
_LIVE_STREAMS = 8


class _ChunkCache:
    """Bytes-capped LRU of content-addressed chunks.

    Not thread-safe on its own: every access happens under the owning
    service's lock.  Eviction may drop the entry being inserted (a cache
    smaller than one chunk); correctness never depends on retention —
    synthesis results reach waiters through the flight, not the cache.
    """

    def __init__(self, max_bytes: "int | None"):
        if max_bytes is not None and (
            isinstance(max_bytes, bool)
            or not isinstance(max_bytes, (int, np.integer))
            or max_bytes < 0
        ):
            raise ValueError(
                f"cache_bytes must be a non-negative integer or None for "
                f"unlimited, got {max_bytes!r}"
            )
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, address: str) -> "np.ndarray | None":
        array = self._entries.get(address)
        if array is None:
            self.misses += 1
            return None
        self._entries.move_to_end(address)
        self.hits += 1
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
            self.evictions += 1

    def __contains__(self, address: str) -> bool:
        return address in self._entries

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
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
        or store root path, used read-through/write-through: the same
        bits across processes.  A lossy (``int16``) store is refused.

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
        store: "ChunkStore | str | os.PathLike | None" = None,
    ):
        emulator = _resolve_emulator(source)
        if not emulator.is_fitted or emulator.training_summary is None:
            raise RuntimeError("EmulationService needs a fitted emulator")
        self._emulator = emulator
        self._summary = emulator.training_summary
        self._seed = int(seed)
        self._store = None if store is None else _open_store(store)
        self._chunk_shape = (self.steps_per_year, *self.grid.shape)
        if isinstance(source, (str, os.PathLike)):
            self._artifact_bytes = os.path.getsize(os.fspath(source))
        else:
            self._artifact_bytes = emulator.measured_artifact_bytes()

        self._lock = threading.Lock()
        # The counters stats() reports, in its key order; every update
        # happens under the lock.
        self._counts = {
            "requests": 0, "request_hits": 0, "request_misses": 0,
            "served_bytes": 0, "store_chunk_hits": 0,
        }
        self._synthesis = {
            "flights": 0, "batched_flights": 0, "coalesced_realizations": 0,
            "coalesced_waits": 0, "chunks": 0, "seconds": 0.0,
            "stream_resumes": 0,
        }
        self._cache = _ChunkCache(cache_bytes)
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

    def stats(self) -> dict:
        """Hit/miss/bytes/synthesis counters across every tier.

        ``synthesis["flights"]`` counts synthesis passes: N concurrent
        identical requests increment it once (single flight), and
        same-scenario requests coalesced into one batch also increment
        it once (``batched_flights`` / ``coalesced_realizations`` break
        that down).
        """
        with self._lock:
            summary = {
                "seed": self._seed,
                "steps_per_year": self.steps_per_year,
                "artifact_bytes": self._artifact_bytes,
                **self._counts,
                "chunk_cache": self._cache.stats(),
                "synthesis": {**self._synthesis, "live_streams": len(self._streams)},
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
            see the module docstring for the ``emulate`` equivalence.
        """
        if not isinstance(request, FieldRequest):
            raise TypeError(
                f"expected a FieldRequest, got {type(request).__name__}"
            )
        if request.window is not None:
            request.window.validate_for(self.grid)
        # Memo lookups only: the scenario is resolved by the request that
        # leads a synthesis flight (_run_flight), never on a hit.
        stream_addr = request.stream_address()
        addresses = {
            year: chunk_address(stream_addr, request.realization, year)
            for year in request.years
        }
        with span(
            "serve.get",
            scenario=request.scenario,
            realization=request.realization,
            years=len(addresses),
        ) as sp:
            chunks: dict[int, np.ndarray] = {}
            missing = self._collect(addresses, chunks)
            with self._lock:
                self._counts["requests"] += 1
                self._counts["request_misses" if missing else "request_hits"] += 1
            sp.set(outcome="miss" if missing else "hit")
            while missing:
                role, flight, predecessor = self._join(
                    stream_addr, request.realization, max(missing) + 1
                )
                if role == "lead":
                    self._run_flight(flight, stream_addr, request)
                elif role == "lead_after":
                    predecessor.done.wait()
                    self._run_flight(flight, stream_addr, request)
                else:
                    flight.done.wait()
                if flight.error is not None:
                    raise RuntimeError(
                        f"chunk synthesis failed for stream {stream_addr[:12]}..."
                    ) from flight.error
                for year, address in addresses.items():
                    if year not in chunks and address in flight.results:
                        chunks[year] = flight.results[address]
                # Anything still missing (a need that arrived after the
                # leader's snapshot, or an eviction race) is retried:
                # every tier is re-checked and, if needed, a fresh
                # flight joined or led.
                missing = self._collect(addresses, chunks)
            result = self._assemble(request, chunks)
            sp.set(bytes=result.nbytes)
            return result

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
            # Disk read, outside the lock; checked before it is cached.
            array = _read_chunk(store, addresses[year], self._chunk_shape)
            if array is None:
                missing.append(year)
                continue
            array.setflags(write=False)
            chunks[year] = array
            with self._lock:
                self._counts["store_chunk_hits"] += 1
                self._cache.put(addresses[year], array)
        return missing

    def _assemble(self, request: FieldRequest, chunks: dict[int, np.ndarray]) -> np.ndarray:
        fields = np.concatenate([chunks[year] for year in request.years], axis=0)
        if request.window is not None:
            fields = np.ascontiguousarray(request.window.extract(fields))
        with self._lock:
            self._counts["served_bytes"] += fields.nbytes
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
        ``"wait"`` (a pending flight takes the need, or a running one
        already covers it).
        """
        with self._lock:
            head = self._flights.get(stream_addr)
            if head is None:
                flight = _Flight()
                flight.needs[realization] = stop
                self._flights[stream_addr] = flight
                return "lead", flight, None
            if head.running and not head.covers(realization, stop):
                if head.next is None:
                    head.next = _Flight()
                    head.next.needs[realization] = stop
                    return "lead_after", head.next, head
                head = head.next
            # A pending flight (its leader is about to run, or is a
            # successor waiting on its predecessor) is still open.
            head.needs[realization] = max(head.needs.get(realization, 0), stop)
            self._synthesis["coalesced_waits"] += 1
            return "wait", head, None

    def _run_flight(
        self, flight: _Flight, stream_addr: str, request: FieldRequest
    ) -> None:
        """Leader path: snapshot needs, synthesize, publish, hand over.

        The leader's request resolves the scenario: every request of the
        flight shares its stream address, so any of them names the same
        forcing and nugget flag.
        """
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
                    stream_addr, request.resolve_spec(), request.include_nugget,
                    needs,
                )
                flight_span.set(chunks=len(results))
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                synthesis = self._synthesis
                synthesis["flights"] += 1
                synthesis["chunks"] += len(results)
                synthesis["seconds"] += flight_span.elapsed()
                if len(needs) > 1:
                    synthesis["batched_flights"] += 1
                    synthesis["coalesced_realizations"] += len(needs) - 1
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
            first_missing = jobs[realizations[0]][0]
            with self._lock:
                live = self._streams.pop(key, None)
                if live is None or live.next_year > first_missing or live.horizon < stop:
                    live = None
                else:
                    self._synthesis["stream_resumes"] += 1
        if live is None:
            horizon = max(stop, _STREAM_HORIZON)
            spy = self.steps_per_year
            iterator = self._emulator.generator().generate_stream_multi(
                _member_rngs(self._seed, realizations),
                n_times=horizon * spy,
                annual_forcing=spec.annual_forcing(horizon),
                include_nugget=include_nugget,
                start_year=self._summary.start_year,
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
        if key is not None and live.next_year < live.horizon:
            with self._lock:
                self._streams[key] = live
                self._streams.move_to_end(key)
                while len(self._streams) > _LIVE_STREAMS:
                    self._streams.popitem(last=False)
        return results
