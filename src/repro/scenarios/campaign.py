"""Parallel ensemble-campaign runner: fit once, replay across many futures.

The storage story of the paper only pays off when one fitted emulator is
replayed across many forcing pathways and realisations.  This module turns
that replay into a single sharded job: :func:`run_campaign` takes a fitted
emulator (or a saved artifact path) plus ``scenarios x realizations``, and

* seeds every run by one rule: realization ``r`` of *every* scenario
  draws from ``np.random.SeedSequence(seed, spawn_key=(r,))`` — the
  stream :class:`~repro.serving.service.EmulationService` synthesizes
  from — so a campaign is bit-identical no matter how many workers
  execute it or in which order they finish;
* executes the runs in blocks of up to ``batch_size`` realizations of
  one scenario, on the calling thread by default or (``max_workers > 1``)
  sharded across a thread pool — generation is read-only on the fitted
  state;
* drives every block through the one generation path,
  :meth:`EmulationGenerator.generate_stream_multi
  <repro.core.generator.EmulationGenerator.generate_stream_multi>`: each
  run keeps its own generator, peak memory stays at one chunk per block
  regardless of scenario length, and the VAR recursion and the
  ``O(L^3)`` inverse spherical-harmonic transform run once per block
  with bit-identical output for every block size;
* emits a :class:`CampaignManifest` recording, per run, the scenario, the
  seed spawn key, the chunk layout and the measured output bytes — the
  numbers :func:`repro.storage.accounting.campaign_storage_report` turns
  into the artifact-to-output "boost factor";
* optionally lands every chunk in the persistent
  :class:`~repro.storage.chunkstore.ChunkStore` (``store=``), the one
  persistence tier: chunks are keyed by the same ``(stream, realization,
  year)`` content-addresses the service uses, so a campaign *pre-warms*
  serving — every campaign chunk is later served from the store with
  zero cold synthesis, bit-identical for a lossless (float64) store —
  and :func:`iter_chunk_arrays` reads them back manifest-driven.
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.api.facade import _resolve as _resolve_emulator
from repro.obs import counter_add, gauge_set, span
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.serving.request import FieldRequest, chunk_address
from repro.storage.chunkstore import ChunkStore
from repro.tuning import _pilot_batch_size

__all__ = [
    "CampaignManifest",
    "CampaignRunPlan",
    "CampaignRunRecord",
    "iter_chunk_arrays",
    "plan_campaign",
    "run_campaign",
]

_COLLECT_MODES = ("global-mean", "fields", "none")


@dataclass(frozen=True)
class CampaignRunPlan:
    """Everything one worker needs to execute one campaign run.

    ``store_root`` / ``stream_address`` are set when the campaign writes
    into a :class:`~repro.storage.chunkstore.ChunkStore`;
    ``stream_address`` is the run's scenario-stream content-address from
    :meth:`repro.serving.request.FieldRequest.stream_address`.
    """

    index: int
    scenario: str
    realization: int
    seed: np.random.SeedSequence
    forcing: np.ndarray
    n_times: int
    chunk_size: int
    include_nugget: bool
    collect: str
    store_root: str | None = None
    stream_address: str | None = None

    @property
    def spawn_key(self) -> tuple[int, ...]:
        """The run's ``SeedSequence`` spawn key (recorded in the manifest)."""
        return tuple(int(k) for k in self.seed.spawn_key)


@dataclass
class CampaignRunRecord:
    """Outcome of one campaign run, as recorded in the manifest."""

    index: int
    scenario: str
    realization: int
    spawn_key: tuple[int, ...]
    n_times: int
    chunk_sizes: list[int]
    output_bytes: int
    #: Content-addresses of this run's chunks in the campaign's
    #: ``ChunkStore`` (chunk order), empty for store-less campaigns.
    #: These are the exact addresses ``FieldRequest`` serving resolves,
    #: so the serving tier and :func:`iter_chunk_arrays` address the
    #: same bytes.
    chunk_addresses: list[str] = field(default_factory=list)
    collected: np.ndarray | None = None
    #: Measured wall-clock seconds of the run's execution block.  Runs
    #: of one block share one synthesis pass, so they report the block's
    #: wall time, not a per-run share.  Like ``collected``, timing is
    #: measurement rather than content: it stays off :meth:`to_dict`,
    #: which campaign tests pin bit-identical across worker counts and
    #: batch sizes (the manifest-level ``timing`` block carries it).
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-able summary (the ``collected`` array stays on the object)."""
        return {
            "index": int(self.index),
            "scenario": str(self.scenario),
            "realization": int(self.realization),
            "spawn_key": list(self.spawn_key),
            "n_times": int(self.n_times),
            "chunk_sizes": [int(c) for c in self.chunk_sizes],
            "output_bytes": int(self.output_bytes),
            "chunk_addresses": [str(a) for a in self.chunk_addresses],
        }


@dataclass
class CampaignManifest:
    """The record of a campaign: settings plus one entry per run."""

    seed: int
    n_times: int
    steps_per_year: int
    chunk_size: int
    collect: str
    max_workers: int
    executor: str
    artifact_bytes: int
    runs: list[CampaignRunRecord] = field(default_factory=list)
    batch_size: int = 1
    #: Wall-clock seconds of the whole execution phase (planning through
    #: the last worker), measured by the ``campaign.total`` span.
    total_wall_seconds: float = 0.0
    #: One ``{"scenario", "n_runs", "wall_seconds"}`` entry per executed
    #: block, in campaign order (sourced from the ``campaign.batch``
    #: spans).
    batch_timings: list[dict] = field(default_factory=list)
    #: Persistent-store header when the campaign wrote into a
    #: :class:`~repro.storage.chunkstore.ChunkStore`:
    #: ``{"root", "encoding", "stream_addresses": {scenario: address}}``.
    #: ``None`` for store-less campaigns.
    store: "dict | None" = None
    #: Autotuning header when the campaign ran with ``tune="auto"``:
    #: ``executor`` / ``max_workers`` / ``batch_size`` as resolved,
    #: ``chosen`` (per knob ``"caller"``, ``"default"`` or ``"pilot"``),
    #: the pilot's ``samples`` (one ``{"batch_size", "seconds_per_run"}``
    #: per block it timed), and ``predicted_seconds`` next to
    #: ``actual_seconds``.  ``None`` for untuned campaigns.  Like
    #: ``timing``, this is provenance, not content — ``runs`` stays
    #: bit-identical tuned or not.
    tuning: "dict | None" = None

    @property
    def n_runs(self) -> int:
        """Number of executed runs (scenarios x realizations)."""
        return len(self.runs)

    @property
    def scenario_names(self) -> list[str]:
        """Distinct scenario names, in campaign order."""
        return list(dict.fromkeys(run.scenario for run in self.runs))

    @property
    def total_output_bytes(self) -> int:
        """Measured bytes of emulated output across every run."""
        return sum(run.output_bytes for run in self.runs)

    @property
    def runs_per_second(self) -> float:
        """Executed runs per wall-clock second (0.0 when unmeasured)."""
        if self.total_wall_seconds <= 0.0:
            return 0.0
        return self.n_runs / self.total_wall_seconds

    @property
    def output_bytes_per_second(self) -> float:
        """Emulated output bytes per wall-clock second (0.0 when unmeasured)."""
        if self.total_wall_seconds <= 0.0:
            return 0.0
        return self.total_output_bytes / self.total_wall_seconds

    def run(self, scenario: str, realization: int) -> CampaignRunRecord:
        """The record for one (scenario, realization) pair."""
        for record in self.runs:
            if record.scenario == scenario and record.realization == realization:
                return record
        raise KeyError(f"no run for scenario {scenario!r}, realization {realization}")

    def collected(self) -> dict[tuple[str, int], np.ndarray]:
        """Mapping ``(scenario, realization) -> collected array``."""
        return {
            (record.scenario, record.realization): record.collected
            for record in self.runs
            if record.collected is not None
        }

    def to_dict(self) -> dict:
        """JSON-able manifest."""
        return {
            "schema": 1,
            "seed": int(self.seed),
            "n_times": int(self.n_times),
            "steps_per_year": int(self.steps_per_year),
            "chunk_size": int(self.chunk_size),
            "collect": str(self.collect),
            "max_workers": int(self.max_workers),
            "executor": str(self.executor),
            "batch_size": int(self.batch_size),
            "artifact_bytes": int(self.artifact_bytes),
            "n_runs": self.n_runs,
            "total_output_bytes": int(self.total_output_bytes),
            "scenarios": self.scenario_names,
            "store": None if self.store is None else dict(self.store),
            "tuning": None if self.tuning is None else dict(self.tuning),
            "runs": [record.to_dict() for record in self.runs],
            # Timing sits in the header, next to max_workers/executor:
            # like those knobs it is provenance, not content — the
            # ``runs`` entries stay bit-identical across worker counts.
            "timing": {
                "total_wall_seconds": float(self.total_wall_seconds),
                "runs_per_second": float(self.runs_per_second),
                "output_bytes_per_second": float(self.output_bytes_per_second),
                "run_wall_seconds": [float(r.wall_seconds) for r in self.runs],
                "batches": [dict(entry) for entry in self.batch_timings],
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The manifest as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: "str | os.PathLike") -> str:
        """Write the manifest JSON to ``path``; returns the path."""
        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        return path


def plan_campaign(
    scenarios,
    n_realizations: int,
    *,
    n_times: int,
    steps_per_year: int,
    chunk_size: int,
    seed: int = 0,
    include_nugget: bool = True,
    collect: str = "global-mean",
    start_level: float = 2.5,
    store_root: "str | None" = None,
) -> list[CampaignRunPlan]:
    """Expand ``scenarios x realizations`` into per-run execution plans.

    Runs are ordered scenario-major, and realization ``r`` of *every*
    scenario is pinned to the ``SeedSequence`` child with
    ``spawn_key == (r,)`` — exactly the stream
    :class:`~repro.serving.service.EmulationService` synthesizes from.
    Each run owns one child, which makes sharded execution bit-identical
    to serial execution, and the chunks a campaign lands under their
    serving content-addresses (``store_root`` set) are the chunks
    serving would have produced.
    """
    specs = [resolve_scenario(s, start_level=start_level) for s in scenarios]
    if not specs:
        raise ValueError("a campaign needs at least one scenario")
    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        # Manifest lookups are keyed by (scenario, realization); duplicate
        # names would make runs unreachable, so reject them up front.
        raise ValueError(
            f"duplicate scenario names in campaign: {duplicates}; "
            f"rename one spec (ScenarioSpec.rename) to keep runs addressable"
        )
    if n_realizations < 1:
        raise ValueError("n_realizations must be positive")
    if collect not in _COLLECT_MODES:
        raise ValueError(f"collect must be one of {_COLLECT_MODES}, got {collect!r}")
    n_years = -(-int(n_times) // int(steps_per_year))
    # Realization r draws from spawn_key (r,) whatever its scenario,
    # matching EmulationService.
    children = np.random.SeedSequence(seed).spawn(n_realizations)
    plans: list[CampaignRunPlan] = []
    for spec in specs:
        forcing = spec.annual_forcing(n_years)
        stream_address = None
        if store_root is not None:
            # The serving layer's own canonicalization, so campaign and
            # FieldRequest addresses can never drift apart.
            stream_address = FieldRequest(
                spec, include_nugget=include_nugget, start_level=start_level
            ).stream_address()
        for realization in range(n_realizations):
            plans.append(CampaignRunPlan(
                index=len(plans),
                scenario=spec.name,
                realization=realization,
                seed=children[realization],
                forcing=forcing,
                n_times=int(n_times),
                chunk_size=int(chunk_size),
                include_nugget=include_nugget,
                collect=collect,
                store_root=store_root,
                stream_address=stream_address,
            ))
    return plans


@dataclass
class _RunAccumulator:
    """Per-run bookkeeping of one execution block."""

    plan: CampaignRunPlan
    chunk_sizes: list[int] = field(default_factory=list)
    collected_parts: "list[np.ndarray]" = field(default_factory=list)
    #: ``address -> float64 chunk`` staged for the campaign's store,
    #: flushed once per execution block through ``put_many`` (one
    #: manifest transaction per block, not per chunk).
    store_chunks: "dict[str, np.ndarray]" = field(default_factory=dict)
    chunk_addresses: list[str] = field(default_factory=list)
    output_bytes: int = 0

    def add_chunk(
        self, t_start: int, member: np.ndarray, global_means: np.ndarray
    ) -> None:
        """Record one chunk of this run.

        ``member`` is the run's ``(nt, ntheta, nphi)`` slice of the
        chunk; ``global_means`` its ``(nt,)`` area-weighted mean series.
        """
        plan = self.plan
        self.chunk_sizes.append(member.shape[0])
        self.output_bytes += member.size * np.dtype(np.float32).itemsize
        if plan.store_root is not None:
            # One chunk == one model year (run_campaign pins chunk_size
            # to steps_per_year for store campaigns), so the chunk's
            # serving address is (stream, realization, t_start // spy).
            # The full-precision float64 data is staged — the store's
            # lossless tier preserves the service's bit-exactness
            # contract.
            address = chunk_address(
                plan.stream_address, plan.realization, t_start // plan.chunk_size
            )
            self.chunk_addresses.append(address)
            self.store_chunks[address] = np.ascontiguousarray(
                np.asarray(member, dtype=np.float64)
            )
        if plan.collect == "global-mean":
            self.collected_parts.append(global_means)
        elif plan.collect == "fields":
            self.collected_parts.append(member)

    def record(self) -> CampaignRunRecord:
        """Finish the run and build its manifest record."""
        collected = (
            np.concatenate(self.collected_parts, axis=0)
            if self.collected_parts else None
        )
        return CampaignRunRecord(
            index=self.plan.index,
            scenario=self.plan.scenario,
            realization=self.plan.realization,
            spawn_key=self.plan.spawn_key,
            n_times=self.plan.n_times,
            chunk_sizes=self.chunk_sizes,
            output_bytes=self.output_bytes,
            chunk_addresses=self.chunk_addresses,
            collected=collected,
        )


def _flush_store(
    store: "ChunkStore | None", accs: "list[_RunAccumulator]"
) -> None:
    """Land an execution block's staged chunks in the store, one batch.

    ``put_many`` is one manifest transaction however many runs the block
    held, and it is idempotent under the store's first-writer-wins
    commit protocol — a re-run campaign (or two campaigns sharing
    scenarios and realizations) re-derives the same content-addresses
    and skips the chunks it finds already stored.
    """
    if store is None:
        return
    chunks: dict[str, np.ndarray] = {}
    for acc in accs:
        chunks.update(acc.store_chunks)
    if not chunks:
        return
    nbytes = sum(array.nbytes for array in chunks.values())
    with span("campaign.store_flush", n_chunks=len(chunks), bytes=nbytes):
        store.put_many(chunks)
    counter_add("campaign.store.chunks", len(chunks))
    counter_add("campaign.store.bytes", nbytes)


def _execute_batch(
    emulator, plans: "list[CampaignRunPlan]", parent=None,
    store: "ChunkStore | None" = None,
) -> "list[CampaignRunRecord]":
    """Execute a block of same-scenario runs in one vectorized stream.

    Every plan keeps its own ``SeedSequence``-derived generator, so each
    returned record is bit-identical whatever else shares the block (a
    block of one is the same loop); only the shared data-independent
    work (VAR recursion, inverse SHT, trend/scale restore) is amortised
    across the block.  Each record's ``wall_seconds`` is the block's
    wall time (the synthesis is shared, so a per-run share would be
    fiction).

    ``parent`` links this block's span to the campaign-level span even
    when the block executes on a pool thread (whose span stack starts
    empty).
    """
    first = plans[0]
    assert all(p.scenario == first.scenario for p in plans), (
        "batched plans must share one scenario (one forcing / mean trend)"
    )
    sp = span(
        "campaign.batch",
        parent=parent,
        scenario=first.scenario,
        n_runs=len(plans),
    )
    with sp:
        rngs = [np.random.default_rng(plan.seed) for plan in plans]
        accs = [_RunAccumulator(plan) for plan in plans]
        stream = emulator.generator().generate_stream_multi(
            rngs,
            n_times=first.n_times,
            annual_forcing=first.forcing,
            include_nugget=first.include_nugget,
            start_year=emulator.training_summary.start_year,
            chunk_size=first.chunk_size,
        )
        for chunk in stream:
            t_start = chunk.metadata["stream_offset"]
            means = chunk.global_mean_series()  # (B, nt)
            for b, acc in enumerate(accs):
                acc.add_chunk(t_start, chunk.data[b], means[b])
        _flush_store(store, accs)
        records = [acc.record() for acc in accs]
    for record in records:
        record.wall_seconds = sp.seconds
    return records


def _batch_plans(
    plans: "list[CampaignRunPlan]", batch_size: int | None
) -> "list[list[CampaignRunPlan]]":
    """Group plans into same-scenario blocks of at most ``batch_size``.

    Plans are scenario-major (see :func:`plan_campaign`), so consecutive
    runs of one scenario form each block; ``None`` or 1 gives one-run
    blocks.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be positive")
    size = 1 if batch_size is None else int(batch_size)
    blocks: list[list[CampaignRunPlan]] = []
    for plan in plans:
        if (
            blocks
            and len(blocks[-1]) < size
            and blocks[-1][0].scenario == plan.scenario
        ):
            blocks[-1].append(plan)
        else:
            blocks.append([plan])
    return blocks


def _resolve_reader_store(manifest, store) -> ChunkStore:
    """The :class:`ChunkStore` to read a campaign back from.

    ``store=None`` opens the store the manifest records; a path opens
    that root with the manifest's recorded encoding (falling back to
    lossless); a :class:`ChunkStore` instance is used as-is.
    """
    if isinstance(store, ChunkStore):
        return store
    header = manifest.get("store") if isinstance(manifest, dict) else manifest.store
    if store is None and not header:
        raise ValueError(
            "the manifest records no chunk_addresses — the campaign "
            "did not write into a store (run_campaign(store=...))"
        )
    root = header["root"] if store is None else os.fspath(store)
    return ChunkStore(str(root), str(header["encoding"]) if header else "float64")


def iter_chunk_arrays(manifest, *, store=None):
    """Load the stored chunks of a campaign back, manifest-driven.

    Yields ``(run, member)`` for every run: ``run`` is the manifest's
    run entry (a :class:`CampaignRunRecord`, or a plain dict when
    iterating a JSON-loaded manifest) and ``member`` is the run's
    reassembled ``float32`` field array of shape
    ``(n_times, ntheta, nphi)``, fetched by the run's
    ``chunk_addresses`` from the persistent store — the same bytes
    ``FieldRequest`` serving resolves.

    Every chunk is validated against the manifest's recorded layout
    before anything is yielded: chunk count and per-chunk length must
    match ``chunk_sizes``, the chunks must tile ``n_times``
    contiguously and spatial shapes must agree across chunks — a
    missing, truncated or foreign chunk raises a ``ValueError`` naming
    the run and chunk instead of silently yielding a corrupt record.

    Parameters
    ----------
    manifest:
        A :class:`CampaignManifest`, its :meth:`CampaignManifest.to_dict`
        form, or a JSON-loaded manifest document.
    store:
        ``None`` (read the store the manifest records), a store root
        path, or an open :class:`~repro.storage.chunkstore.ChunkStore`.
    """
    reader_store = _resolve_reader_store(manifest, store)
    runs = manifest["runs"] if isinstance(manifest, dict) else manifest.runs
    for run in runs:
        entry = run if isinstance(run, dict) else run.to_dict()
        addresses = [str(a) for a in entry.get("chunk_addresses", [])]
        chunk_sizes = [int(c) for c in entry["chunk_sizes"]]
        n_times = int(entry["n_times"])
        label = (
            f"run {entry['index']} ({entry['scenario']!r}, r{entry['realization']})"
        )
        if not addresses:
            raise ValueError(
                f"{label}: the manifest records no chunk_addresses — "
                f"the campaign did not write into a store "
                f"(run_campaign(store=...))"
            )
        if len(addresses) != len(chunk_sizes):
            raise ValueError(
                f"{label}: the manifest records {len(addresses)} "
                f"chunk_addresses but {len(chunk_sizes)} chunk_sizes; "
                f"the manifest is corrupt"
            )
        # Addresses are recorded in chunk order, so chunk j starts at the
        # running offset of the manifest's chunk_sizes.
        arrays = []
        offset = 0
        for j, address in enumerate(addresses):
            array = reader_store.get(address)
            if array is None:
                raise ValueError(
                    f"{label}: chunk {j} at t_start={offset} (address "
                    f"{address[:12]}...) is not in the store at "
                    f"{reader_store.root}; it was pruned or never committed"
                )
            if array.shape[0] != chunk_sizes[j]:
                raise ValueError(
                    f"{label}: chunk {j} at t_start={offset} holds "
                    f"{array.shape[0]} time steps but the manifest records "
                    f"{chunk_sizes[j]}; the chunk was truncated or rewritten "
                    f"since the campaign ran"
                )
            if arrays and array.shape[1:] != arrays[0].shape[1:]:
                raise ValueError(
                    f"{label}: chunk {j} has spatial shape "
                    f"{tuple(array.shape[1:])} but chunk 0 has "
                    f"{tuple(arrays[0].shape[1:])}; chunks of one run "
                    f"must share one grid"
                )
            arrays.append(array)
            offset += chunk_sizes[j]
        if offset != n_times:
            raise ValueError(
                f"{label}: chunks cover {offset} of {n_times} time steps"
            )
        yield run, np.concatenate(arrays, axis=0).astype(np.float32)


class _Heartbeat:
    """The ``progress=`` callback's beats: once at start, then after every
    completed execution block.

    Beats happen only on the coordinating thread (it drains the finished
    blocks in plan order, whether it executed them itself or a pool
    thread did), so the counter needs no lock; timing reads the open
    ``campaign.total`` span's clock, so the heartbeat adds no timer of
    its own and stays inside the telemetry layer's hygiene contract.
    """

    def __init__(self, n_runs: int, clock_span, callback=None):
        self._n_runs = int(n_runs)
        self._clock = clock_span
        self._callback = callback
        self._done = 0
        self._beat()

    def update(self, n_completed: int) -> None:
        """Record ``n_completed`` more finished runs and beat."""
        self._done += int(n_completed)
        self._beat()

    def _beat(self) -> None:
        if self._callback is None:
            return
        elapsed = float(self._clock.elapsed())
        rate = self._done / elapsed if elapsed > 0.0 else 0.0
        self._callback({
            "runs_done": self._done,
            "runs_total": self._n_runs,
            "elapsed_seconds": elapsed,
            "runs_per_second": rate,
            "eta_seconds": (self._n_runs - self._done) / rate if rate > 0.0 else None,
        })


def run_campaign(
    source,
    scenarios,
    n_realizations: int = 1,
    *,
    n_times: int | None = None,
    chunk_size: int | None = None,
    seed: int = 0,
    max_workers: int | None = None,
    executor: "str | None" = None,
    batch_size: int | None = None,
    tune: "str | None" = None,
    include_nugget: bool = True,
    collect: str = "global-mean",
    start_level: float = 2.5,
    store: "ChunkStore | str | os.PathLike | None" = None,
    progress=None,
) -> CampaignManifest:
    """Replay a fitted emulator across ``scenarios x realizations`` runs.

    Determinism guarantee: every per-run output (the run records, the
    collected reductions, the stored chunks) is a pure function of
    ``(source, scenarios, n_realizations, n_times, chunk_size, seed,
    include_nugget, collect, start_level, store encoding)``.
    Realization ``r`` of every scenario always draws from the
    ``SeedSequence`` child with ``spawn_key == (r,)``, store or no
    store, so ``max_workers``, ``executor``, ``batch_size`` and ``tune``
    are throughput knobs only: any combination produces bit-identical
    runs.  (The manifest *header* records those execution knobs for
    provenance, so whole-manifest JSON differs across them even though
    ``runs`` never does.)

    Parameters
    ----------
    source:
        A fitted :class:`~repro.core.emulator.ClimateEmulator` or the path
        of a saved artifact.
    scenarios:
        Iterable of registered scenario names (or
        :class:`~repro.scenarios.spec.ScenarioSpec` objects).
    n_realizations:
        Realisations generated per scenario.
    n_times:
        Steps per run (training length by default).
    chunk_size:
        Streaming chunk length (one model year by default).
    seed:
        Root entropy; realization ``r`` draws from the ``SeedSequence``
        child with ``spawn_key == (r,)`` — the stream
        :class:`~repro.serving.service.EmulationService` uses under the
        same seed — so results do not depend on ``max_workers``.
    max_workers:
        Block-level worker threads.  ``None`` resolves to 1, tuned or
        not: blocks run one after another on the calling thread, and the
        parallelism is the BLAS threads inside a block (on the 2-core
        host of ``docs/tuning.md`` one worker wins every row of the
        sweep).  ``N > 1`` shards the blocks across a pool of ``N``
        threads.  The manifest header always records the resolved
        integer, never ``null``.
    batch_size:
        Realizations of one scenario synthesised together per vectorized
        block (``None`` or 1 gives one-run blocks; under
        ``tune="auto"`` an unset value is chosen by the pilot).
        Batched runs keep their own per-run generators, so output is
        bit-identical for every block size; the VAR recursion and the
        ``O(L^3)`` inverse SHT run once per block instead of once per
        run.  With ``max_workers > 1`` work is sharded across the
        workers block-wise, so for small campaigns a large
        ``batch_size`` trades worker parallelism for vectorization.
    executor:
        ``None`` or ``"thread"``, which mean the same thing: blocks run
        on threads of this process (generation is read-only on the
        fitted state).  The ``"process"`` executor was removed — it lost
        every row of the sweep in ``docs/tuning.md`` — and is refused
        with a ``ValueError``.
    tune:
        ``"auto"`` picks an unset ``batch_size`` by a *pilot*
        (:mod:`repro.tuning`): the coordinating thread runs the plan's
        first same-scenario blocks itself — ``min(n_realizations, 32)``
        runs first (twice: a campaign's first block is cold), then half
        of that, halving only while the halved block is measurably
        faster per run — and blocks the remaining runs with the winner.
        Pilot blocks are ordinary blocks (their records and store
        commits are kept), and block size is bit-inert, so tuned and
        untuned campaigns produce identical runs.  ``max_workers`` is
        not searched.  A ``batch_size`` passed explicitly is **always**
        honoured; the first block is then timed only for the
        prediction.  The manifest's ``tuning`` header records the
        resolved knobs, who chose each, the pilot's per-block samples, and
        ``predicted_seconds`` (the pilot's elapsed time plus its best
        seconds-per-run over the runs left) next to ``actual_seconds``;
        both are mirrored on the ``tuning.campaign.*`` gauges.
    include_nugget:
        Include the truncation nugget in the emulations.
    collect:
        Per-run reduction kept on the manifest: ``"global-mean"`` (the
        area-weighted series, default), ``"fields"`` (the full member —
        unbounded memory, test-sized runs only) or ``"none"``.
    start_level:
        Baseline forcing handed to the scenario factories.
    store:
        A :class:`~repro.storage.chunkstore.ChunkStore` (or a store root
        path, opened lossless) the campaign lands every chunk in, keyed
        by the serving tier's ``(stream, realization, year)``
        content-addresses — so an
        :class:`~repro.serving.service.EmulationService` over the same
        root (same seed) serves every campaign chunk with **zero** cold
        synthesis, bit-identical for a float64 store.  Chunking is
        pinned to the canonical year stream under ``store=``:
        ``chunk_size`` must equal ``steps_per_year`` (the default) and
        ``n_times`` must be a whole number of years, because serving
        addresses chunks by model year.

        Chunks are staged per execution block and committed with one
        ``put_many`` transaction per block (safe against other
        processes writing the same root; a re-run campaign finds its
        addresses already stored and skips them).  The full float64
        data is stored; :func:`iter_chunk_arrays` reads it back
        manifest-driven.
    progress:
        Optional callback for the structured progress heartbeat.  Once
        at start and after every completed execution block the campaign
        calls ``progress(info)`` from the coordinating thread with
        ``info = {"runs_done", "runs_total", "elapsed_seconds",
        "runs_per_second", "eta_seconds"}`` (``eta_seconds`` is ``None``
        until a rate exists).  The heartbeat never touches run output:
        results stay bit-identical with or without it.

    Returns
    -------
    CampaignManifest
        Per-run scenario, seed spawn key, chunk layout, chunk store
        addresses, measured output bytes and the collected reduction.
    """
    if executor not in (None, "thread"):
        raise ValueError(
            f"executor must be None or 'thread', got {executor!r}: the process "
            f"executor was removed; pass max_workers=N to run blocks on N threads"
        )
    if tune not in (None, "auto"):
        raise ValueError(f"tune must be None or 'auto', got {tune!r}")
    emulator = _resolve_emulator(source)
    if emulator.training_summary is None or not emulator.is_fitted:
        raise RuntimeError("run_campaign needs a fitted emulator")
    summary = emulator.training_summary
    if n_times is None:
        n_times = summary.n_times
    n_times = int(n_times)
    if n_times < 1:
        raise ValueError(f"n_times must be >= 1, got {n_times}")
    chunk_size = int(chunk_size) if chunk_size is not None else summary.steps_per_year
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if batch_size is not None and int(batch_size) < 1:
        raise ValueError("batch_size must be positive")
    if max_workers is not None and int(max_workers) < 1:
        raise ValueError("max_workers must be positive")

    store_obj: "ChunkStore | None" = None
    if store is not None:
        store_obj = (
            store if isinstance(store, ChunkStore)
            else ChunkStore(os.fspath(store))
        )
        # Serving addresses chunks by model year of the canonical
        # year-chunked stream; any other layout would land chunks the
        # service can never resolve.
        if chunk_size != summary.steps_per_year:
            raise ValueError(
                f"store-backed campaigns must use the canonical year "
                f"chunking: chunk_size={chunk_size} != steps_per_year="
                f"{summary.steps_per_year} (leave chunk_size unset)"
            )
        if n_times % summary.steps_per_year != 0:
            raise ValueError(
                f"store-backed campaigns must cover whole model years: "
                f"n_times={n_times} is not a multiple of steps_per_year="
                f"{summary.steps_per_year}"
            )

    plans = plan_campaign(
        scenarios, n_realizations,
        n_times=n_times, steps_per_year=summary.steps_per_year,
        chunk_size=chunk_size, seed=seed, include_nugget=include_nugget,
        collect=collect, start_level=start_level,
        store_root=None if store_obj is None else store_obj.root,
    )

    # The measured artifact size: for a path source the on-disk file is the
    # measurement; only an in-memory emulator needs an (emulator-cached)
    # serialisation pass.
    if isinstance(source, (str, os.PathLike)):
        artifact_bytes = os.path.getsize(os.fspath(source))
    else:
        artifact_bytes = emulator.measured_artifact_bytes()

    # Resolve the execution knobs.  ``max_workers`` resolves the same
    # way tuned or not; ``tune="auto"`` only adds the pilot below, which
    # picks an unset ``batch_size`` by measurement.
    chosen = {
        "executor": "default" if executor is None else "caller",
        "max_workers": "default" if max_workers is None else "caller",
        "batch_size": "pilot" if batch_size is None else "caller",
    }
    executor = "thread"
    workers = 1 if max_workers is None else int(max_workers)

    total_span = span(
        "campaign.total",
        n_runs=len(plans),
        executor=executor,
        max_workers=workers,
    )
    tuning_header = None
    with total_span:
        heartbeat = _Heartbeat(len(plans), total_span, progress)
        records: "list[CampaignRunRecord]" = []
        blocks: "list[list[CampaignRunPlan]]" = []
        if tune == "auto":
            # The pilot: the plan's first blocks, executed and timed on
            # this thread.  Their records and store commits are kept, so
            # it costs only the runs spent at a size that did not win.
            def time_block(size: int):
                done = len(records)
                if done == len(plans):
                    return None
                block = _batch_plans(plans[done:done + size], size)[0]
                block_records = _execute_batch(emulator, block, store=store_obj)
                blocks.append(block)
                records.extend(block_records)
                heartbeat.update(len(block))
                return len(block), block_records[0].wall_seconds

            with span("tuning.pilot") as pilot_span:
                batch_size, rate, samples = _pilot_batch_size(
                    int(n_realizations), time_block, batch_size
                )
                pilot_span.set(
                    candidates=[s["batch_size"] for s in samples],
                    seconds_per_run=[s["seconds_per_run"] for s in samples],
                    winner=batch_size,
                )
            # An extrapolation of this campaign on this host: what the
            # pilot took plus its best rate over the runs still to go.
            predicted = pilot_span.seconds + rate * (len(plans) - len(records))
            gauge_set("tuning.campaign.predicted_seconds", predicted)
            tuning_header = {
                "executor": executor,
                "max_workers": workers,
                "batch_size": batch_size,
                "predicted_seconds": float(predicted),
                "chosen": chosen,
                "samples": samples,
            }

        rest = _batch_plans(plans[len(records):], batch_size)
        blocks.extend(rest)
        total_span.set(n_blocks=len(blocks))
        # Serial or pooled, the blocks come back as an in-order lazy
        # iterable of per-block record lists, so the coordinating thread
        # drains it block by block and beats the progress heartbeat as
        # each block lands.
        execute = partial(
            _execute_batch, emulator, parent=total_span, store=store_obj
        )
        with contextlib.ExitStack() as stack:
            if workers == 1 or not rest:
                batched = map(execute, rest)
            else:
                pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
                batched = pool.map(execute, rest)
            for block_records in batched:
                records.extend(block_records)
                heartbeat.update(len(block_records))

    # Per-block timing, reassembled by slicing the (order-preserving)
    # flattened records back into the planned blocks.  Records of one
    # block share its wall time, so the block entry reads it from any
    # member.
    batch_timings: list[dict] = []
    offset = 0
    for block in blocks:
        block_records = records[offset:offset + len(block)]
        offset += len(block)
        batch_timings.append({
            "scenario": block[0].scenario,
            "n_runs": len(block),
            "wall_seconds": float(
                max(rec.wall_seconds for rec in block_records)
            ),
        })

    if tuning_header is not None:
        tuning_header["actual_seconds"] = float(total_span.seconds)
        gauge_set("tuning.campaign.actual_seconds", float(total_span.seconds))

    store_header = None
    if store_obj is not None:
        store_header = {
            "root": store_obj.root,
            "encoding": store_obj.encoding,
            "stream_addresses": {
                plan.scenario: plan.stream_address
                for plan in plans
                if plan.realization == 0
            },
        }

    return CampaignManifest(
        seed=int(seed),
        n_times=n_times,
        steps_per_year=summary.steps_per_year,
        chunk_size=chunk_size,
        collect=collect,
        max_workers=workers,
        executor=executor,
        artifact_bytes=artifact_bytes,
        runs=records,
        batch_size=1 if batch_size is None else int(batch_size),
        total_wall_seconds=total_span.seconds,
        batch_timings=batch_timings,
        store=store_header,
        tuning=tuning_header,
    )
