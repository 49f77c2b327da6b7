#!/usr/bin/env python
"""Scenario campaign: fit once, replay the emulator across many futures.

This script is the scenario-engine counterpart of the quickstart:

1. fit the emulator on a small synthetic ensemble and save it as an
   artifact (``repro.fit`` + ``repro.save``),
2. list the registered forcing pathways and compose a *new* one from
   components — registered with zero edits to the core,
3. ``repro.run_campaign`` the artifact across 3 scenarios x 2
   realizations, both realizations of a scenario synthesised in one
   block, streaming chunks with bounded memory,
4. verify the batched campaign is bit-identical to one-run blocks (every
   run is pinned to its own ``SeedSequence.spawn`` stream),
5. print the campaign manifest and the storage "boost factor": how many
   bytes of archive-equivalent output one small artifact emitted,
6. stand up the on-demand serving tier over the same artifact — an
   ``EmulationService`` backed by a persistent ``ChunkStore`` — and show
   a request served cold (synthesized + stored) then hot (from cache),
7. report where the serving time went: the service's own counters
   (``service.stats()``).

Run with:  PYTHONPATH=src python examples/scenario_campaign.py

Tracing: set ``REPRO_TRACE=trace.jsonl`` to record every span this
script opens (fit, SHT, plan cache, campaign runs, serving, chunk
store) and profile it with ``python tools/tracereport.py trace.jsonl``;
the profile's ``serve.get`` row carries the request latency
percentiles.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.scenarios.components import GHGRamp, Stabilisation
from repro.storage import format_bytes


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
    #    it touches neither repro/scenarios/registry.py nor repro/core.
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
        #    year-sized chunks, two realizations per block — and
        #    bit-identical to one-run blocks because realization r of every
        #    scenario always draws from the SeedSequence child with
        #    spawn_key (r,).
        campaign_args = dict(n_realizations=2, n_times=4 * 24, seed=2024,
                             collect="global-mean")
        serial = repro.run_campaign(artifact_path, scenario_names, **campaign_args)

        beats: list[dict] = []
        batched = repro.run_campaign(artifact_path, scenario_names,
                                     batch_size=2, progress=beats.append,
                                     **campaign_args)
        final_beat = beats[-1]
        print(f"\nProgress heartbeat: {len(beats)} beats, last = "
              f"{final_beat['runs_done']}/{final_beat['runs_total']} runs, "
              f"{final_beat['runs_per_second']:.1f} runs/s")
        identical = all(
            np.array_equal(a.collected, b.collected)
            for a, b in zip(serial.runs, batched.runs)
        )
        print(f"\nCampaign: {batched.n_runs} runs "
              f"({len(scenario_names)} scenarios x 2 realizations), "
              f"blocks of {batched.batch_size}, chunks of {batched.steps_per_year} steps")
        print(f"  batched == one-run blocks (bit-identical): {identical}")
        if not identical:
            raise SystemExit("batched campaign diverged from one-run blocks")

        print("\n  run  scenario          r  seed-key  chunks        mean[K]")
        for record in batched.runs:
            mean_k = float(record.collected.mean())
            print(f"  {record.index:3d}  {record.scenario:16s} "
                  f"{record.realization}  {str(record.spawn_key):8s} "
                  f"{str(record.chunk_sizes):12s}  {mean_k:8.2f}")

        manifest_path = batched.save(os.path.join(tmp_dir, "manifest.json"))
        print(f"\nManifest written: {os.path.basename(manifest_path)}")

        # 5. The boost factor: emitted output volume per artifact byte,
        #    read from the manifest.
        output = batched.total_output_bytes
        print("\nStorage (the 'boosting' direction):")
        print(f"  artifact:          {format_bytes(batched.artifact_bytes)}")
        print(f"  campaign output:   {format_bytes(output)} "
              f"across {batched.n_runs} runs")
        print(f"  boost factor:      {output / batched.artifact_bytes:.1f}x "
              f"(grows with scenarios, realizations and record length)")
        print(f"  campaign wall:     {batched.total_wall_seconds:.2f} s "
              f"({batched.runs_per_second:.1f} runs/s, "
              f"{format_bytes(int(batched.output_bytes_per_second))}/s)")

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

        # 7. Where the serving time went: the service's own counters
        #    (latency percentiles come from a trace; see the docstring).
        print("\nServing telemetry:")
        print(f"  chunk cache:       {stats['chunk_cache']['hits']} hits, "
              f"{stats['chunk_cache']['misses']} misses, "
              f"{format_bytes(stats['chunk_cache']['bytes'])} held")
        print(f"  synthesis:         {stats['synthesis']['flights']} flights, "
              f"{stats['synthesis']['chunks']} chunks, "
              f"{stats['synthesis']['seconds']:.3f} s")


if __name__ == "__main__":
    main()
