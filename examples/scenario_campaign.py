#!/usr/bin/env python
"""Scenario campaign: fit once, replay the emulator across many futures.

This script is the scenario-engine counterpart of the quickstart:

1. fit the emulator on a small synthetic ensemble and save it as an
   artifact (``repro.fit`` + ``repro.save``),
2. list the registered forcing pathways and compose a *new* one from
   components — registered with zero edits to the core,
3. ``repro.run_campaign`` the artifact across 3 scenarios x 2
   realizations, sharded over 4 workers, streaming chunks with bounded
   memory,
4. verify the sharded campaign is bit-identical to the serial run (every
   run is pinned to its own ``SeedSequence.spawn`` stream),
5. print the campaign manifest and the storage "boost factor": how many
   bytes of archive-equivalent output one small artifact emitted,
6. stand up the on-demand serving tier over the same artifact — an
   ``EmulationService`` backed by a persistent ``ChunkStore`` — and show
   a request served cold (synthesized + stored) then hot (from cache),
7. report where the serving time went: the service's own counters
   (``service.stats()``) and the ``serve.get`` latency percentiles from
   the metrics registry (``repro.obs.metrics_snapshot()``).

Run with:  PYTHONPATH=src python examples/scenario_campaign.py

Tracing: set ``REPRO_TRACE=trace.jsonl`` to record every span this
script opens (fit, SHT, plan cache, campaign runs, serving, chunk
store) and profile it with ``python tools/tracereport.py trace.jsonl``.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.obs import metrics_snapshot
from repro.scenarios import GHGRamp, Stabilisation
from repro.storage import campaign_storage_report, format_bytes


def main() -> None:
    print("=" * 70)
    print("Exascale climate emulator reproduction — scenario campaign")
    print("=" * 70)

    # 1. Fit once, save the artifact: the campaign replays the artifact,
    #    never the training data.
    sim_config = repro.Era5LikeConfig(
        lmax=12, n_years=4, steps_per_year=24, n_ensemble=2, forcing_growth=0.8,
    )
    simulations = repro.Era5LikeGenerator(sim_config, seed=1).generate()
    emulator = repro.fit(simulations, lmax=12, n_harmonics=2, var_order=1,
                         tile_size=36, rho_grid=(0.3, 0.7))

    # 2. The scenario catalogue, and a new composed pathway.  Registering
    #    it touches neither repro/data/forcing.py nor repro/core.
    print("\nRegistered forcing pathways:")
    for name, description in sorted(repro.list_scenarios().items()):
        print(f"  {name:16s} {description}")

    @repro.register_scenario("delayed-drawdown", overwrite=True,
                             description="ramp, then a net-negative drawdown after year 2")
    def _delayed_drawdown(start_level: float = 2.5) -> repro.ScenarioSpec:
        return repro.ScenarioSpec("delayed-drawdown", (
            GHGRamp(base=start_level, rate=0.5),
            Stabilisation(base=0.0, amplitude=-1.5, timescale_years=1.0,
                          delay_years=2.0),
        ))

    scenario_names = ["ssp-low", "ssp-high", "delayed-drawdown"]

    with tempfile.TemporaryDirectory() as tmp_dir:
        artifact_path = repro.save(emulator, os.path.join(tmp_dir, "emulator.npz"))
        print(f"\nSaved artifact: {format_bytes(os.path.getsize(artifact_path))}")

        # 3. + 4. The campaign: 3 scenarios x 2 realizations, streamed in
        #    year-sized chunks, sharded over 4 workers — and bit-identical
        #    to the serial run because realization r of every scenario
        #    always draws from the SeedSequence child with spawn_key (r,).
        campaign_args = dict(n_realizations=2, n_times=4 * 24, seed=2024,
                             collect="global-mean")
        serial = repro.run_campaign(artifact_path, scenario_names, **campaign_args)

        beats: list[dict] = []
        sharded = repro.run_campaign(artifact_path, scenario_names,
                                     max_workers=4, progress=beats.append,
                                     **campaign_args)
        final_beat = beats[-1]
        print(f"\nProgress heartbeat: {len(beats)} beats, last = "
              f"{final_beat['runs_done']}/{final_beat['runs_total']} runs, "
              f"{final_beat['runs_per_second']:.1f} runs/s")
        identical = all(
            np.array_equal(a.collected, b.collected)
            for a, b in zip(serial.runs, sharded.runs)
        )
        print(f"\nCampaign: {sharded.n_runs} runs "
              f"({len(scenario_names)} scenarios x 2 realizations), "
              f"4 workers, chunks of {sharded.chunk_size} steps")
        print(f"  sharded == serial (bit-identical): {identical}")
        if not identical:
            raise SystemExit("sharded campaign diverged from the serial run")

        print("\n  run  scenario          r  seed-key  chunks        mean[K]")
        for record in sharded.runs:
            mean_k = float(record.collected.mean())
            print(f"  {record.index:3d}  {record.scenario:16s} "
                  f"{record.realization}  {str(record.spawn_key):8s} "
                  f"{str(record.chunk_sizes):12s}  {mean_k:8.2f}")

        manifest_path = sharded.save(os.path.join(tmp_dir, "manifest.json"))
        print(f"\nManifest written: {os.path.basename(manifest_path)}")

        # 5. The boost factor: emitted output volume per artifact byte.
        report = campaign_storage_report(sharded)
        print("\nStorage accounting (the 'boosting' direction):")
        print(f"  artifact:          {format_bytes(report['artifact_bytes'])}")
        print(f"  campaign output:   {format_bytes(report['campaign_output_bytes'])} "
              f"across {report['n_runs']} runs")
        print(f"  boost factor:      {report['boost_factor']:.1f}x "
              f"(grows with scenarios, realizations and record length)")
        print(f"  campaign wall:     {report['wall_seconds']:.2f} s "
              f"({report['runs_per_second']:.1f} runs/s, "
              f"{format_bytes(int(report['output_bytes_per_second']))}/s)")

        # 6. The serving tier: the same artifact answers field requests
        #    on demand, write-through to a persistent chunk store.
        service = repro.serve(emulator, seed=2024,
                              store=os.path.join(tmp_dir, "chunk-store"))
        request = repro.FieldRequest("delayed-drawdown", realization=0,
                                     year_start=0, year_stop=2)
        cold = service.get(request)     # synthesized, cached, stored
        hot = service.get(request)      # served from the chunk cache
        stats = service.stats()
        print("\nOn-demand serving (same artifact, chunk store attached):")
        print(f"  request:           {request.scenario} r{request.realization} "
              f"years [{request.year_start}, {request.year_stop}) -> "
              f"field {cold.shape}, bit-identical on re-request: "
              f"{np.array_equal(cold, hot)}")
        print(f"  service counters:  {stats['requests']} requests, "
              f"{stats['request_hits']} hits, "
              f"{format_bytes(stats['served_bytes'])} served")
        print(f"  chunk store:       {stats['store']['n_chunks']} chunks, "
              f"{format_bytes(stats['store']['encoded_bytes'])} on disk")

        # 7. Where the serving time went: the service's own counters and
        #    the request latency the ``serve.get`` span recorded.
        latency = metrics_snapshot()["histograms"]["serve.get.seconds"]
        print("\nServing telemetry:")
        print(f"  chunk cache:       {stats['chunk_cache']['hits']} hits, "
              f"{stats['chunk_cache']['misses']} misses, "
              f"{format_bytes(stats['chunk_cache']['bytes'])} held")
        print(f"  synthesis:         {stats['synthesis']['flights']} flights, "
              f"{stats['synthesis']['chunks']} chunks, "
              f"{stats['synthesis']['seconds']:.3f} s")
        print(f"  serve.get latency: p50 {latency['p50'] * 1e3:.2f} ms, "
              f"p99 {latency['p99'] * 1e3:.2f} ms "
              f"over {latency['count']} requests")


if __name__ == "__main__":
    main()
