"""The on-demand emulation service.

:class:`EmulationService` turns a fitted emulator artifact into a field
*server*: callers hand it frozen :class:`~repro.serving.request.FieldRequest`
objects and get back the requested array, synthesized only when no tier
already holds it.  Four tiers answer a request, cheapest first:

1. an in-process, bytes-capped LRU of model-year chunks (full grid, one
   entry per ``(scenario, realization, year)`` content-address);
2. an optional persistent :class:`~repro.storage.chunkstore.ChunkStore`
   (read-through on miss, write-through on synthesis);
3. remembered terms of Eq. 1, a field being ``m_t + sigma * Z_t``: a
   bytes-capped memo holds ``sigma * Z_t`` per ``(nugget flag,
   realization, year)`` — the same under every scenario, since the
   forcing enters only the mean — and ``m_t`` per ``(stream, year)``, so
   a year another scenario already drew costs one addition;
4. a draw through the one generation path (the year loop of
   :meth:`EmulationGenerator.generate_stream_multi
   <repro.core.generator.EmulationGenerator.generate_stream_multi>`,
   scale applied, the mean added here), which leaves each year's
   ``sigma * Z_t`` in the memo.  A draw starts at the latest year whose
   start state (the member's bit generator and VAR history, again the
   same under every scenario) a second bytes-capped memo holds, so a
   cold year after served ones costs one year of synthesis.

Tiers 3 and 4 run in one flight per ``(stream, realization)`` at a time:
concurrent requests for one realization's years compute once, and
requests for different realizations synthesize at once.

Determinism contract
--------------------
Realization ``r`` of a scenario draws from
``np.random.SeedSequence(seed, spawn_key=(r,))`` — the one seeding rule,
which ``emulate(rng=seed)`` member ``r`` and realization ``r`` of every
:func:`repro.run_campaign` scenario follow too — through the one draw
schedule, one model year at a time.  Year ``y`` depends only on years
``<= y``, so chunks are *prefix-compatible*: the same year served from a
short request, a long request or a stream resumed from a year-start
state is bit-identical.
Consequently ``service.get(request)``:

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

#: Budget of the year-start-state memo (bytes): 1,022 VAR(2) states at
#: L = 32, 255 at L = 64.  Output bits never depend on it.
_STATE_MEMO_BYTES = 16 * 2**20

#: Budget of the memo of Eq. 1's two terms, ``sigma * Z_t`` per
#: realization-year and ``m_t`` per stream-year (bytes).  Each term is one
#: chunk's size, so it holds 42 terms at L = 32, 10 at L = 64.  Output bits
#: never depend on it.
_TERM_MEMO_BYTES = 16 * 2**20


class _LRU:
    """Bytes-capped LRU of chunks, year-start states or terms of Eq. 1
    (anything with ``nbytes``).

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
        self._entries: OrderedDict = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = value
        self.bytes += value.nbytes
        if self.max_bytes is None:
            return
        while self.bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self.bytes -= evicted.nbytes
            self.evictions += 1

    def __contains__(self, key) -> bool:
        return key in self._entries

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
    """One in-flight synthesis of one realization's chunks, up to year ``stop``.

    Requests for that realization that arrive while it runs wait on
    ``done``.  One whose years it reaches reads ``results`` (or fails
    with it); any other then re-checks every tier and leads the next
    flight.
    """

    __slots__ = ("stop", "done", "results", "error")

    def __init__(self, stop: int):
        self.stop = stop
        self.done = threading.Event()
        self.results: dict[str, np.ndarray] = {}
        self.error: "BaseException | None" = None


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
            "flights": 0, "coalesced_waits": 0, "chunks": 0, "seconds": 0.0,
            "stream_resumes": 0, "restored": 0,
        }
        self._cache = _LRU(cache_bytes)
        self._flights: dict[tuple[str, int], _Flight] = {}
        # Year-start states and sigma * Z_t by (include_nugget, realization,
        # year): no scenario, since the forcing enters only the mean.  The
        # term memo also holds m_t by (stream address, year).
        self._states = _LRU(_STATE_MEMO_BYTES)
        self._terms = _LRU(_TERM_MEMO_BYTES)

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

        A request meets the tiers in the order chunk cache
        (``chunk_cache``), store (``store_chunk_hits``, ``store``),
        remembered terms (``term_memo``: ``sigma * Z_t`` and ``m_t``), draw
        (``state_memo``: the year-start states a draw starts from).

        ``synthesis["flights"]`` counts synthesis passes, one realization
        each: N concurrent identical requests increment it once (single
        flight).  ``chunks`` counts every chunk the flights produced and
        ``restored`` those of them added up from remembered terms, with no
        draw.  ``coalesced_waits`` counts the times a request waited on
        another request's flight, and ``stream_resumes`` the draws that
        started after year 0, from a remembered year-start state.
        """
        with self._lock:
            summary = {
                "seed": self._seed,
                "steps_per_year": self.steps_per_year,
                "artifact_bytes": self._artifact_bytes,
                **self._counts,
                "chunk_cache": self._cache.stats(),
                "term_memo": self._terms.stats(),
                "state_memo": self._states.stats(),
                "synthesis": dict(self._synthesis),
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
            key = (stream_addr, request.realization)
            while missing:
                stop = missing[-1] + 1
                role, flight = self._join(key, stop)
                if role == "lead":
                    self._run_flight(flight, key, request, missing[0])
                else:
                    flight.done.wait()
                    if flight.error is not None and flight.stop >= stop:
                        raise RuntimeError(
                            f"chunk synthesis failed for stream {stream_addr[:12]}..."
                        ) from flight.error
                for year, address in addresses.items():
                    if year not in chunks and address in flight.results:
                        chunks[year] = flight.results[address]
                # Anything still missing (years past the flight waited on,
                # or an eviction race) is retried: every tier is re-checked
                # and, if needed, a fresh flight joined or led.
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
    # Single flight
    # ------------------------------------------------------------------ #
    def _join(self, key: "tuple[str, int]", stop: int) -> "tuple[str, _Flight]":
        """Join the running flight of ``key`` or start one up to ``stop``.

        Returns ``(role, flight)`` with role ``"lead"`` (a new flight the
        caller must run, :meth:`_run_flight`) or ``"wait"`` (another
        request's flight is running).
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight(stop)
                return "lead", flight
            self._synthesis["coalesced_waits"] += 1
            return "wait", flight

    def _run_flight(
        self, flight: _Flight, key: "tuple[str, int]", request: FieldRequest,
        first_missing: int,
    ) -> None:
        """Leader path: synthesize, publish, write through.

        The leader's request resolves the scenario: every request of the
        flight shares its stream address, so any of them names the same
        forcing and nugget flag.
        """
        stream_addr, realization = key
        flight_span = span(
            "serve.flight", stream=stream_addr[:12], realization=realization
        )
        results: dict[str, np.ndarray] = {}
        restored = 0
        try:
            with flight_span:
                results, drawn = self._synthesize(
                    key, request.resolve_spec(), request.include_nugget,
                    first_missing, flight.stop,
                )
                restored = len(results) - drawn
                flight_span.set(chunks=len(results), drawn=drawn, restored=restored)
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                synthesis = self._synthesis
                synthesis["flights"] += 1
                synthesis["chunks"] += len(results)
                synthesis["restored"] += restored
                synthesis["seconds"] += flight_span.elapsed()
                for address, array in results.items():
                    self._cache.put(address, array)
                flight.results = results
                del self._flights[key]
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
    def _synthesize(
        self, key: "tuple[str, int]", spec, include_nugget: bool,
        first_missing: int, stop: int,
    ) -> "tuple[dict[str, np.ndarray], int]":
        """Produce the chunks from ``first_missing`` up to ``stop`` of one
        realization's stream; returns them and how many were drawn.

        A year whose ``sigma * Z_t`` the term memo holds is restored as
        ``sigma * Z_t + m_t``.  The others are drawn in one pass from the
        first of them to the last, through the one generation path; it
        starts at the latest year at or before the first whose start state
        the state memo holds (year 0 if none), yields every year it passes,
        and leaves each year's ``sigma * Z_t`` and the start state of each
        next year in the memos.
        """
        stream_addr, realization = key
        memo_key = (include_nugget, realization)
        with self._lock:
            remembered = {}
            for year in range(first_missing, stop):
                zs = self._terms.get((*memo_key, year))
                if zs is not None:
                    remembered[year] = zs
            to_draw = [year for year in range(first_missing, stop) if year not in remembered]
            start = None
            if to_draw:
                first = next(
                    (year for year in range(to_draw[0], 0, -1)
                     if (*memo_key, year) in self._states),
                    0,
                )
                if first:
                    start = [self._states.get((*memo_key, first))]
                    self._synthesis["stream_resumes"] += 1
        generator = self._emulator.generator()
        forcing = spec.annual_forcing(stop)
        results: dict[str, np.ndarray] = {}
        passed: list = []
        if to_draw:
            draw_stop = to_draw[-1] + 1
            years = generator._scaled_years(
                _member_rngs(self._seed, [realization]), draw_stop, include_nugget,
                first_year=first, start=start, passed=passed,
            )
            for year, zs in zip(range(first, draw_stop), years):
                zs = zs[0]
                zs.setflags(write=False)
                with self._lock:
                    self._terms.put((*memo_key, year), zs)
                results[chunk_address(stream_addr, realization, year)] = self._add_mean(
                    generator, forcing, stream_addr, year, zs
                )
            with self._lock:
                for year, (state,) in enumerate(passed, start=first + 1):
                    self._states.put((*memo_key, year), state)
        drawn = len(results)
        for year, zs in remembered.items():
            address = chunk_address(stream_addr, realization, year)
            if address not in results:
                results[address] = self._add_mean(generator, forcing, stream_addr, year, zs)
        return results, drawn

    def _add_mean(self, generator, forcing, stream_addr: str, year: int, zs) -> np.ndarray:
        """``sigma * Z_t + m_t`` of one year in a fresh read-only array, the
        bits of the generator's own restore; ``m_t`` is computed once per
        ``(stream, year)`` while the term memo holds it."""
        t_start = year * self.steps_per_year
        with span("generate.restore", t_start=t_start, n_forcings=1):
            with self._lock:
                mean = self._terms.get((stream_addr, year))
            if mean is None:
                mean = generator._mean(forcing, t_start)
                mean.setflags(write=False)
                with self._lock:
                    self._terms.put((stream_addr, year), mean)
            array = zs + mean
        array.setflags(write=False)
        return array
