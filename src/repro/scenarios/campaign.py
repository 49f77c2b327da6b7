"""Ensemble-campaign runner: fit once, replay across many futures.

The storage story of the paper only pays off when one fitted emulator is
replayed across many forcing pathways and realisations.  This module turns
that replay into a single batched job: :func:`run_campaign` takes a fitted
emulator (or a saved artifact path) plus ``scenarios x realizations``, and

* seeds every run by the one seeding rule: realization ``r`` of *every*
  scenario draws from ``np.random.SeedSequence(seed, spawn_key=(r,))`` —
  the stream ``emulate(rng=seed)`` member ``r`` and
  :class:`~repro.serving.service.EmulationService` draw — so a campaign
  is bit-identical however its runs are blocked;
* executes the runs in realization blocks: up to ``batch_size``
  realizations of *every* scenario, one block after another on the
  calling thread (the parallelism is the BLAS threads inside a block);
* draws each model year of a block once, through the one generation
  path (:meth:`EmulationGenerator.generate_stream_multi
  <repro.core.generator.EmulationGenerator.generate_stream_multi>` and
  its many-forcing case): the forcing enters only through the mean
  trend, so realization ``r``'s standardized year — its draws, factor
  multiply, VAR step, inverse SHT and nugget — is the same in every
  scenario and is restored once per scenario.  Each run keeps its own
  generator, output is bit-identical for every block size, and peak
  memory stays bounded regardless of scenario length: a block holds one
  model year (``scenarios x batch_size`` chunks) plus, store-backed, the
  years staged for the next commit, which lands once they reach
  :data:`_COMMIT_BYTES`;
* emits a :class:`CampaignManifest` recording, per run, the scenario, the
  seed spawn key, the chunk layout and the measured output bytes — over
  the manifest's ``artifact_bytes``, the artifact-to-output "boost
  factor";
* optionally lands every chunk in the persistent
  :class:`~repro.storage.chunkstore.ChunkStore` (``store=``), the one
  persistence tier: chunks are keyed by the same ``(stream, realization,
  year)`` content-addresses the service uses, so a campaign *pre-warms*
  serving — every campaign chunk is later served from the store with
  zero cold synthesis, bit-identical — and :func:`iter_chunk_arrays`
  reads them back manifest-driven, the same ``float64`` bits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.api.facade import _resolve as _resolve_emulator
from repro.core.generator import (
    _check_chunk_size, _checked_count, _member_rngs, _member_seeds,
)
from repro.obs import span
from repro.scenarios.registry import resolve_scenario, stream_address
from repro.scenarios.spec import ScenarioSpec
from repro.storage.address import chunk_address
from repro.storage.chunkstore import ChunkStore, _open_store, _read_chunk
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

#: Realizations per block when ``batch_size`` is unset and nothing tunes
#: it: ``min(n_realizations, _DEFAULT_BATCH)``.  Blocks are bit-inert;
#: docs/tuning.md has the sweep behind the value.
_DEFAULT_BATCH = 4

#: Bytes of staged chunks at which a store-backed block commits: years
#: are staged until they reach it (or the block ends), then land in one
#: ``put_many``.  Below one ``campaign_L64`` model year (12 chunks, about
#: 19 MB), so a year that size still commits on its own; a block of small
#: years commits every ~16 MiB instead of once a year.
_COMMIT_BYTES = 16 * 2 ** 20


@dataclass(frozen=True)
class CampaignRunPlan:
    """Everything one worker needs to execute one campaign run.

    ``store_root`` / ``stream_address`` are set when the campaign writes
    into a :class:`~repro.storage.chunkstore.ChunkStore`;
    ``stream_address`` is the run's scenario-stream content-address from
    :func:`repro.scenarios.registry.stream_address`, the one
    :meth:`repro.serving.request.FieldRequest.stream_address` returns.
    """

    index: int
    scenario: str
    realization: int
    seed: np.random.SeedSequence
    forcing: np.ndarray
    n_times: int
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
    #: which campaign tests pin bit-identical across batch sizes (the
    #: manifest-level ``timing`` block carries it).
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
    collect: str
    max_workers: int
    executor: str
    artifact_bytes: int
    runs: list[CampaignRunRecord] = field(default_factory=list)
    batch_size: int = 1
    #: Wall-clock seconds of the whole execution phase (planning through
    #: the last block), measured by the ``campaign.total`` span.
    total_wall_seconds: float = 0.0
    #: One ``{"scenario", "n_runs", "wall_seconds"}`` entry per scenario
    #: of each executed realization block, in campaign (plan) order, so
    #: consecutive entries partition ``runs``.  ``wall_seconds`` is the
    #: whole block's (from its ``campaign.batch`` span): the scenarios of
    #: a block share one draw.
    batch_timings: list[dict] = field(default_factory=list)
    #: Persistent-store header when the campaign wrote into a
    #: :class:`~repro.storage.chunkstore.ChunkStore`:
    #: ``{"root", "grid": [ntheta, nphi], "stream_addresses": {scenario:
    #: address}}``.  ``None`` for store-less campaigns.
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
            # Every chunk is one model year; the key keeps the format.
            "chunk_size": int(self.steps_per_year),
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
            # Timing sits in the header, next to batch_size: like that
            # knob it is provenance, not content — the ``runs`` entries
            # stay bit-identical across block sizes.
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
    chunk_size: "int | None" = None,
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
    Each run owns one child, which makes batched execution bit-identical
    to one-run blocks, and the chunks a campaign lands under their
    serving content-addresses (``store_root`` set) are the chunks
    serving would have produced.  ``chunk_size`` is accepted only as
    ``None`` or ``steps_per_year``: every chunk is one model year.
    """
    _check_chunk_size(chunk_size, steps_per_year)
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
    n_realizations = _checked_count("n_realizations", n_realizations)
    n_times = _checked_count("n_times", n_times)
    if collect not in _COLLECT_MODES:
        raise ValueError(f"collect must be one of {_COLLECT_MODES}, got {collect!r}")
    n_years = -(-n_times // int(steps_per_year))
    # Realization r draws by the one seeding rule whatever its scenario.
    children = _member_seeds(seed, range(n_realizations))
    plans: list[CampaignRunPlan] = []
    for spec in specs:
        forcing = spec.annual_forcing(n_years)
        address = None
        if store_root is not None:
            # The function FieldRequest.stream_address delegates to, so
            # campaign and serving addresses can never drift apart.
            address = stream_address(spec, include_nugget=include_nugget)
        for realization in range(n_realizations):
            plans.append(CampaignRunPlan(
                index=len(plans),
                scenario=spec.name,
                realization=realization,
                seed=children[realization],
                forcing=forcing,
                n_times=n_times,
                include_nugget=include_nugget,
                collect=collect,
                store_root=store_root,
                stream_address=address,
            ))
    return plans


@dataclass
class _RunAccumulator:
    """Per-run bookkeeping of one execution block."""

    plan: CampaignRunPlan
    chunk_sizes: list[int] = field(default_factory=list)
    collected_parts: "list[np.ndarray]" = field(default_factory=list)
    chunk_addresses: list[str] = field(default_factory=list)
    output_bytes: int = 0

    def add_chunk(
        self,
        year: int,
        member: np.ndarray,
        global_means: "np.ndarray | None",
        staged: "dict[str, np.ndarray]",
    ) -> None:
        """Record model year ``year`` of this run.

        ``member`` is the run's ``(nt, ntheta, nphi)`` slice of the
        chunk; ``global_means`` its ``(nt,)`` area-weighted mean series or,
        unless the block collects global means, ``None``.  A store-backed
        run stages the chunk in ``staged`` (``address -> float64 chunk``),
        the block's years that :func:`_flush_store` commits next."""
        plan = self.plan
        self.chunk_sizes.append(member.shape[0])
        self.output_bytes += member.nbytes
        if plan.store_root is not None:
            # The full-precision float64 data is staged under the
            # serving address (stream, realization, year) — the store's
            # lossless tier preserves the service's bit-exactness
            # contract.
            address = chunk_address(plan.stream_address, plan.realization, year)
            self.chunk_addresses.append(address)
            staged[address] = np.ascontiguousarray(
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
    store: "ChunkStore | None", chunks: "dict[str, np.ndarray]"
) -> None:
    """Land the staged years of an execution block in the store, one batch.

    ``put_many`` is one manifest transaction however many runs and years
    the batch holds, and it is idempotent under the store's first-writer-wins
    commit protocol — a re-run campaign (or two campaigns sharing
    scenarios and realizations) re-derives the same content-addresses
    and skips the chunks it finds already stored.
    """
    if store is None or not chunks:
        return
    nbytes = sum(array.nbytes for array in chunks.values())
    with span("campaign.store_flush", n_chunks=len(chunks), bytes=nbytes):
        store.put_many(chunks)


def _execute_block(
    emulator, plans: "list[CampaignRunPlan]", store: "ChunkStore | None" = None,
) -> "list[CampaignRunRecord]":
    """Execute one realization block: the same realizations of every scenario.

    ``plans`` are the block's runs in plan order (scenario-major, as
    :func:`_batch_plans` cuts them).  Realization ``r`` draws from
    ``SeedSequence(seed, spawn_key=(r,))`` whatever its scenario, so each
    model year's standardized fields are drawn once for the block and
    restored once per scenario: every record is bit-identical whatever
    else shares the block.  Store-backed, the years' chunks are staged
    until they reach :data:`_COMMIT_BYTES` and then committed, and the
    rest at the block's last year, so the block holds that budget plus
    one model year at most.
    Each record's ``wall_seconds`` is the block's wall time (the
    synthesis is shared, so a per-run share would be fiction).
    """
    first = plans[0]
    n_scenarios = len({plan.scenario for plan in plans})
    n_members = len(plans) // n_scenarios
    accs = [_RunAccumulator(plan) for plan in plans]
    groups = [accs[i:i + n_members] for i in range(0, len(accs), n_members)]
    with span(
        "campaign.batch", n_runs=len(plans), n_scenarios=n_scenarios,
        realizations=[first.realization, first.realization + n_members],
    ) as sp:
        # Every plan's seed is SeedSequence(seed, spawn_key=(realization,)).
        rngs = _member_rngs(
            int(first.seed.entropy), [acc.plan.realization for acc in groups[0]]
        )
        stream = emulator.generator()._stream_under(
            rngs,
            n_times=first.n_times,
            forcings=[group[0].plan.forcing for group in groups],
            include_nugget=first.include_nugget,
            start_year=emulator.training_summary.start_year,
        )
        n_years = -(-first.n_times // emulator.training_summary.steps_per_year)
        staged: "dict[str, np.ndarray]" = {}
        for year in range(n_years):
            _stage_year(next(stream), groups, year, first.collect, staged)
            if year == n_years - 1 or sum(a.nbytes for a in staged.values()) >= _COMMIT_BYTES:
                _flush_store(store, staged)
                staged = {}
        records = [acc.record() for acc in accs]
    for record in records:
        record.wall_seconds = sp.seconds
    return records


def _stage_year(
    chunks, groups: "list[list[_RunAccumulator]]", year: int, collect: str,
    staged: "dict[str, np.ndarray]",
) -> None:
    """Record model year ``year`` of a block's runs, one chunk per scenario.

    Store-backed runs add their chunks to ``staged``.  Nothing else here
    outlives the call, so the block drops the year once it is committed.
    """
    for chunk, group in zip(chunks, groups):
        means = chunk.global_mean_series() if collect == "global-mean" else None
        for b, acc in enumerate(group):
            acc.add_chunk(year, chunk.data[b], None if means is None else means[b], staged)


def _checked_batch_size(batch_size) -> "int | None":
    """``None`` or a positive integer; a float or a ``bool`` is refused
    rather than truncated (``2.5`` would silently run blocks of 2)."""
    return None if batch_size is None else _checked_count("batch_size", batch_size)


def _batch_plans(
    plans: "list[CampaignRunPlan]", batch_size: int
) -> "list[list[CampaignRunPlan]]":
    """Group plans into realization blocks: up to ``batch_size``
    consecutive realizations of every scenario.

    A block holds its realizations for each scenario in plan order
    (scenario-major, see :func:`plan_campaign`); blocks run in
    realization order.
    """
    first = min((plan.realization for plan in plans), default=0)
    blocks: "dict[int, list[CampaignRunPlan]]" = {}
    for plan in plans:
        blocks.setdefault((plan.realization - first) // batch_size, []).append(plan)
    return [blocks[key] for key in sorted(blocks)]


def iter_chunk_arrays(manifest, *, store=None):
    """Load the stored chunks of a campaign back, manifest-driven.

    Yields ``(run, member)`` for every run: ``run`` is the manifest's
    run entry (a :class:`CampaignRunRecord`, or a plain dict when
    iterating a JSON-loaded manifest) and ``member`` is the run's
    reassembled ``float64`` field array of shape
    ``(n_times, ntheta, nphi)``, fetched by the run's
    ``chunk_addresses`` from the persistent store — the bits
    ``FieldRequest`` serving returns for the same chunks.  A caller that
    wants ``float32`` casts.

    Every chunk is validated before anything is yielded: the chunk
    count must match ``chunk_sizes``, the chunks must tile ``n_times``,
    and each chunk must have the shape ``(chunk_size, ntheta, nphi)`` of
    the grid the manifest records — a missing, truncated or foreign
    chunk raises a ``ValueError`` naming it instead of silently yielding
    a corrupt record.

    Parameters
    ----------
    manifest:
        A :class:`CampaignManifest`, its :meth:`CampaignManifest.to_dict`
        form, or a JSON-loaded manifest document.
    store:
        ``None`` (read the store the manifest records), a store root
        path, or an open :class:`~repro.storage.chunkstore.ChunkStore`.
        A reader creates nothing: a root without a store is refused.
    """
    header = (manifest.get("store") if isinstance(manifest, dict) else manifest.store) or {}
    store = header.get("root") if store is None else store
    unstored = (
        "the manifest records no chunk_addresses — the campaign did not "
        "write into a store (run_campaign(store=...))"
    )
    if store is None:
        raise ValueError(unstored)
    if isinstance(store, (str, os.PathLike)) and not os.path.isfile(
        os.path.join(os.fspath(store), "manifest.json")
    ):
        raise ValueError(
            f"no chunk store at {os.fspath(store)}: it has no manifest.json (the "
            f"root was moved or removed, or the path is wrong)"
        )
    reader_store = _open_store(store)
    grid = header.get("grid")
    runs = manifest["runs"] if isinstance(manifest, dict) else manifest.runs
    for run in runs:
        entry = run if isinstance(run, dict) else run.to_dict()
        addresses = [str(a) for a in entry.get("chunk_addresses", [])]
        chunk_sizes = [int(c) for c in entry["chunk_sizes"]]
        n_times = int(entry["n_times"])
        label = f"run {entry['index']} ({entry['scenario']!r}, r{entry['realization']})"
        if not addresses:
            raise ValueError(f"{label}: {unstored}")
        if len(addresses) != len(chunk_sizes):
            raise ValueError(
                f"{label}: the manifest records {len(addresses)} "
                f"chunk_addresses but {len(chunk_sizes)} chunk_sizes; "
                f"the manifest is corrupt"
            )
        if sum(chunk_sizes) != n_times:
            raise ValueError(
                f"{label}: chunks cover {sum(chunk_sizes)} of {n_times} time steps"
            )
        if grid is None:
            # A manifest written before the grid was recorded: the run's
            # first stored chunk names it.
            first = reader_store.entry(addresses[0])
            grid = first["shape"][1:] if first is not None else []
        arrays = []
        for j, (address, steps) in enumerate(zip(addresses, chunk_sizes)):
            array = _read_chunk(reader_store, address, (steps, *grid))
            if array is None:
                raise ValueError(
                    f"{label}: chunk {j} (address {address[:12]}...) is not in "
                    f"the store at {reader_store.root}; it was pruned or never "
                    f"committed"
                )
            arrays.append(array)
        yield run, np.concatenate(arrays, axis=0)


class _Heartbeat:
    """The ``progress=`` callback's beats: once at start, then after every
    completed execution block.

    Beats happen on the calling thread, which executes every block in
    plan order, so the counter needs no lock; timing reads the open
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
    ``(source, scenarios, n_realizations, n_times, seed, include_nugget,
    collect, start_level)``, and run ``(scenario, r)`` is
    member ``r`` of ``emulate(n_realizations=..., rng=seed)`` under the
    scenario's forcing.
    Realization ``r`` of every scenario always draws from the
    ``SeedSequence`` child with ``spawn_key == (r,)``, store or no
    store, so ``batch_size`` and ``tune`` are throughput knobs only: any
    combination produces bit-identical runs.  (The manifest *header*
    records them for provenance, so whole-manifest JSON differs across
    them even though ``runs`` never does.)

    Parameters
    ----------
    source:
        A fitted :class:`~repro.core.emulator.ClimateEmulator` or the path
        of a saved artifact.
    scenarios:
        Iterable of registered scenario names (or
        :class:`~repro.scenarios.spec.ScenarioSpec` objects).
    n_realizations:
        Realisations generated per scenario, a positive integer (a float
        or a ``bool`` is refused, not truncated).
    n_times:
        Steps per run (training length by default), a positive integer
        like ``n_realizations``.  Runs stream one model year per chunk.
    seed:
        Root entropy; realization ``r`` draws from the ``SeedSequence``
        child with ``spawn_key == (r,)`` — the stream
        :class:`~repro.serving.service.EmulationService` uses under the
        same seed — so results do not depend on ``batch_size``.
    max_workers / executor:
        Accepted only as ``None`` or ``1`` and ``None`` or ``"thread"``:
        blocks always run one after another on the calling thread, and
        the parallelism is the BLAS threads inside a block.  The block
        thread pool and the process executor were removed because one
        worker won every row of the sweep in ``docs/tuning.md``; any
        other value raises ``ValueError``.  The manifest header records
        ``1`` and ``"thread"``.
    batch_size:
        Realizations per block: a block is up to ``batch_size``
        consecutive realizations of *every* scenario, synthesised
        together.  Unset, it is ``min(n_realizations, 4)``; under
        ``tune="auto"`` an unset value is chosen by the pilot instead.
        Batched runs keep their own per-run generators, so output is
        bit-identical for every block size.  A block draws each model
        year's standardized fields once — the innovation draws, factor
        multiply, VAR recursion, ``O(L^3)`` inverse SHT and nugget — and
        restores them once per scenario.  A float or a ``bool`` is
        refused, not truncated.
    tune:
        ``"auto"`` picks an unset ``batch_size`` by a *pilot*
        (:mod:`repro.tuning`): it times the plan's first realization
        blocks — ``min(n_realizations, 32)`` realizations first (twice:
        a campaign's first block is cold), then half of that, halving
        only while the halved block is measurably faster per run — and
        blocks the remaining realizations with the winner.  Pilot blocks
        are ordinary blocks (their records and store commits are kept),
        and block size is bit-inert, so tuned and untuned campaigns
        produce identical runs.  A ``batch_size`` passed explicitly is
        **always** honoured; the first block is then timed only for the
        prediction.  The manifest's ``tuning`` header records the
        resolved knobs, who chose each, the pilot's per-block samples, and
        ``predicted_seconds`` (the pilot's elapsed time plus its best
        seconds-per-run over the runs left) next to ``actual_seconds``.
    include_nugget:
        Include the truncation nugget in the emulations.
    collect:
        Per-run reduction kept on the manifest: ``"global-mean"`` (the
        area-weighted series, default), ``"fields"`` (the full member —
        unbounded memory, test-sized runs only) or ``"none"``.
    start_level:
        Baseline forcing handed to the scenario factories.
    store:
        A :class:`~repro.storage.chunkstore.ChunkStore` or a store root
        path the campaign lands every chunk in, keyed by the serving
        tier's ``(stream, realization, year)`` content-addresses — so an
        :class:`~repro.serving.service.EmulationService` over the same
        root (same seed) serves every campaign chunk with **zero** cold
        synthesis, bit-identical.  A lossy (``int16``) store is refused
        before anything is synthesized.  ``n_times`` must be a whole
        number of years, because serving addresses chunks by model
        year.

        Chunks are staged model year by model year within an execution
        block and committed with one ``put_many`` transaction once the
        staged bytes reach ``_COMMIT_BYTES`` (16 MiB), and at the block's
        last year (safe against other processes writing the same root; a
        re-run campaign finds its addresses already stored and skips
        them), so a block holds at most that budget plus one year of
        ``scenarios x batch_size`` chunks, however long the record.
        The full float64 data is stored; :func:`iter_chunk_arrays` reads
        it back manifest-driven.
    progress:
        Optional callback for the structured progress heartbeat.  Once
        at start and after every completed execution block the campaign
        calls ``progress(info)`` from the calling thread with
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
    pooled = max_workers not in (None, 1) or isinstance(max_workers, bool)
    if pooled or executor not in (None, "thread"):
        raise ValueError(
            f"executor must be None or 'thread' and max_workers None or 1, got "
            f"executor={executor!r}, max_workers={max_workers!r}: blocks run on "
            f"the calling thread; the block thread pool and the process executor "
            f"were removed because one worker won every row of the sweep in "
            f"docs/tuning.md"
        )
    if tune not in (None, "auto"):
        raise ValueError(f"tune must be None or 'auto', got {tune!r}")
    emulator = _resolve_emulator(source)
    if emulator.training_summary is None or not emulator.is_fitted:
        raise RuntimeError("run_campaign needs a fitted emulator")
    summary = emulator.training_summary
    n_realizations = _checked_count("n_realizations", n_realizations)
    n_times = _checked_count("n_times", summary.n_times if n_times is None else n_times)
    batch_size = _checked_batch_size(batch_size)

    if store is not None and n_times % summary.steps_per_year != 0:
        raise ValueError(
            f"store-backed campaigns must cover whole model years: "
            f"n_times={n_times} is not a multiple of steps_per_year="
            f"{summary.steps_per_year}"
        )
    store_obj = None if store is None else _open_store(store)

    plans = plan_campaign(
        scenarios, n_realizations,
        n_times=n_times, steps_per_year=summary.steps_per_year,
        seed=seed, include_nugget=include_nugget,
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

    # ``tune="auto"`` adds the pilot below, which picks an unset
    # ``batch_size`` by measurement; ``chosen`` records who set each knob.
    chosen = {
        "executor": "default" if executor is None else "caller",
        "max_workers": "default" if max_workers is None else "caller",
        "batch_size": "pilot" if batch_size is None else "caller",
    }

    total_span = span("campaign.total", n_runs=len(plans))
    n_scenarios = len(plans) // n_realizations
    tuning_header = None
    with total_span:
        heartbeat = _Heartbeat(len(plans), total_span, progress)
        records: "list[CampaignRunRecord]" = []
        batch_timings: list[dict] = []

        def execute(block: "list[CampaignRunPlan]") -> float:
            """Run one block, record it, beat; returns its wall time."""
            block_records = _execute_block(emulator, block, store=store_obj)
            records.extend(block_records)
            seconds = float(block_records[0].wall_seconds)
            n_members = len(block) // n_scenarios
            batch_timings.extend(
                {"scenario": plan.scenario, "n_runs": n_members, "wall_seconds": seconds}
                for plan in block[::n_members]
            )
            heartbeat.update(len(block))
            return seconds

        def remaining(size: int) -> "list[list[CampaignRunPlan]]":
            """The realization blocks of size ``size`` not yet executed."""
            done = len(records) // n_scenarios
            return _batch_plans([p for p in plans if p.realization >= done], size)

        if tune == "auto":
            # The pilot: the plan's first blocks, executed and timed like
            # any other.  Their records and store commits are kept, so it
            # costs only the runs spent at a size that did not win.
            def time_block(size: int):
                if len(records) == len(plans):
                    return None
                block = remaining(size)[0]
                # A block of n realizations runs n of every scenario:
                # per n runs it took its wall time over the scenarios.
                return len(block) // n_scenarios, execute(block) / n_scenarios

            with span("tuning.pilot") as pilot_span:
                batch_size, rate, samples = _pilot_batch_size(
                    n_realizations, time_block, batch_size
                )
                pilot_span.set(
                    candidates=[s["batch_size"] for s in samples],
                    seconds_per_run=[s["seconds_per_run"] for s in samples],
                    winner=batch_size,
                )
            # An extrapolation of this campaign on this host: what the
            # pilot took plus its best rate over the runs still to go.
            predicted = pilot_span.seconds + rate * (len(plans) - len(records))
            tuning_header = {
                "executor": "thread",
                "max_workers": 1,
                "batch_size": batch_size,
                "predicted_seconds": float(predicted),
                "chosen": chosen,
                "samples": samples,
            }

        if batch_size is None:
            batch_size = min(n_realizations, _DEFAULT_BATCH)
        rest = remaining(batch_size)
        total_span.set(n_blocks=len(batch_timings) // n_scenarios + len(rest))
        for block in rest:
            execute(block)

    # Blocks ran in realization order; the manifest keeps plan order.
    records.sort(key=lambda record: record.index)
    order = {name: i for i, name in enumerate(dict.fromkeys(p.scenario for p in plans))}
    batch_timings.sort(key=lambda entry: order[entry["scenario"]])
    if tuning_header is not None:
        tuning_header["actual_seconds"] = float(total_span.seconds)

    store_header = None
    if store_obj is not None:
        store_header = {
            "root": store_obj.root,
            "grid": list(summary.grid.shape),
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
        collect=collect,
        max_workers=1,
        executor="thread",
        artifact_bytes=artifact_bytes,
        runs=records,
        batch_size=batch_size,
        total_wall_seconds=total_span.seconds,
        batch_timings=batch_timings,
        store=store_header,
        tuning=tuning_header,
    )
