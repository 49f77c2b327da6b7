"""``campaign_L64`` — batch emulation from an artifact path into a chunk store.

Synthesis (innovation draws through the 4096-square factor, VAR,
inverse SHT, trend/scale/nugget) and ``put_many`` commits dominate; the
fit path is idle.  The artifact *path* is the source on purpose: it is
the documented flow, and the per-campaign load is a cost users pay.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

import repro
from repro.scenarios import plan_campaign
from repro.serving.request import chunk_address

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    SCENARIOS, STEPS_PER_YEAR, Workload, canonical_chunk, child_int, child_seed,
    era5_ensemble, fit_config, sha256, timed, tree_bytes,
)

N_CHECKED_CHUNKS = 6


class CampaignWorkload(Workload):
    name = "campaign_L64"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.lmax = 8 if smoke else 64
        self.n_realizations = 2 if smoke else 4
        self.n_years = 2
        self.n_times = self.n_years * STEPS_PER_YEAR
        self.n_runs = len(SCENARIOS) * self.n_realizations
        self.n_fields = self.n_runs * self.n_times
        self.config = fit_config(self.lmax)
        self.path = os.path.join(self.workdir, "emulator.npz")
        self.references: dict = {}

    def make_inputs(self) -> str:
        self.ensemble, self.generate_s = timed(
            era5_ensemble, self.lmax, 2, 3, child_int(self.seed, 0)
        )
        self.campaign_seed = child_int(self.seed, 1)
        # Which (scenario, realization, year) chunks are compared with the
        # canonical stream; every chunk's presence is checked regardless.
        rng = np.random.default_rng(child_seed(self.seed, 2))
        keys = [
            (s, r, y) for s in SCENARIOS
            for r in range(self.n_realizations) for y in range(self.n_years)
        ]
        self.sample = [keys[i] for i in rng.permutation(len(keys))[:N_CHECKED_CHUNKS]]
        return sha256(self.ensemble.data, self.campaign_seed, self.sample)

    def _campaign(self, root: str, n_times: "int | None" = None, **knobs):
        knobs = knobs or dict(
            max_workers=1, executor="thread", batch_size=self.n_realizations
        )
        return repro.run_campaign(
            self.path, list(SCENARIOS), n_realizations=self.n_realizations,
            n_times=n_times or self.n_times, seed=self.campaign_seed,
            collect="none", store=root, **knobs,
        )

    def setup(self) -> None:
        repro.clear_plan_cache()
        _, self.plan_build_s = timed(
            repro.get_plan, self.config.sht_method, self.lmax, self.ensemble.grid
        )
        self.emulator = repro.fit(self.ensemble, self.config)
        repro.save(self.emulator, self.path)
        self._campaign(self.new_dir("warmup_"), n_times=STEPS_PER_YEAR)

    def _addresses(self) -> dict:
        """``(scenario, realization, year) -> chunk address`` of the whole plan."""
        return {
            (s, r, y): chunk_address(repro.FieldRequest(s).stream_address(), r, y)
            for s in SCENARIOS
            for r in range(self.n_realizations) for y in range(self.n_years)
        }

    def _check(self, root: str) -> None:
        """A run fails if a chunk of it is missing or a sampled one differs."""
        store = repro.ChunkStore(root)
        addresses = self._addresses()
        bad = {(s, r) for (s, r, y), address in addresses.items() if address not in store}
        for key in self.sample:
            if key not in self.references:
                self.references[key] = canonical_chunk(self.emulator, *key, self.campaign_seed)
            if key[:2] not in bad and not np.array_equal(
                store.get(addresses[key]), self.references[key]
            ):
                bad.add(key[:2])
        self.attempted += self.n_runs
        self.failed += len(bad)

    def round(self) -> dict:
        root = self.new_dir("store_")
        _, wall = timed(self._campaign, root)
        disk_bytes = tree_bytes(root)
        self._check(root)
        shutil.rmtree(root)
        return {"round": wall, "disk_bytes": float(disk_bytes)}

    def report(self, rounds: dict, metrics) -> None:
        metrics.put_timing("ms_per_field", rounds["round"], 1e3 / self.n_fields)
        metrics.put("disk_bytes_per_field", rounds["disk_bytes"][-1] / self.n_fields)

    def _replay(self, tracer) -> dict:
        """One campaign through the layers' own calls; returns the last block's chunks."""
        root = self.new_dir("replay_")
        with tracer.span("round"):
            with tracer.span("api.load"):
                emulator = repro.load(self.path)
            with tracer.span("scenarios.plan"):
                plans = plan_campaign(
                    list(SCENARIOS), self.n_realizations, n_times=self.n_times,
                    steps_per_year=STEPS_PER_YEAR, chunk_size=STEPS_PER_YEAR,
                    seed=self.campaign_seed, collect="none", store_root=root,
                )
            with tracer.span("storage.open"):
                store = repro.ChunkStore(root)
            generator = emulator.generator()
            for start in range(0, len(plans), self.n_realizations):
                block = plans[start:start + self.n_realizations]
                with tracer.span("core.generate", scenario=block[0].scenario):
                    chunks = list(generator.generate_stream_multi(
                        [np.random.default_rng(plan.seed) for plan in block],
                        n_times=self.n_times, annual_forcing=block[0].forcing,
                        start_year=emulator.training_summary.start_year,
                        chunk_size=STEPS_PER_YEAR,
                    ))
                staged = {
                    chunk_address(plan.stream_address, plan.realization, year):
                        np.ascontiguousarray(chunk.data[member])
                    for year, chunk in enumerate(chunks)
                    for member, plan in enumerate(block)
                }
                with tracer.span("storage.put_many", n_chunks=len(staged)):
                    store.put_many(staged)
        self.info["replay_complete"] = all(a in store for a in self._addresses().values())
        shutil.rmtree(root)
        return staged

    def trace(self, tracer, seconds: float, rounds: dict, metrics) -> None:
        staged = self._replay(tracer)
        wall = min(rounds["round"])
        load_s = min(tracer.seconds("api.load"))
        generate_s = sum(tracer.seconds("core.generate"))
        put_s = sum(tracer.seconds("storage.put_many"))
        metrics.put("data.generate_s", self.generate_s)
        layers.plan_metrics(metrics, self.plan_build_s)
        metrics.put("api.load_share", load_s / wall)
        metrics.put("core.generate_b4_ms_per_field", generate_s * 1e3 / self.n_fields)
        metrics.put("scenarios.plan_ms", min(tracer.seconds("scenarios.plan")) * 1e3)
        metrics.put("scenarios.overhead_share", (wall - load_s - generate_s - put_s) / wall)
        metrics.put("scenarios.runs_per_s", self.n_runs / wall)
        layers.synthesis_parts(tracer, metrics, self.emulator, self.n_realizations)
        layers.storage_layer(tracer, metrics, staged, self.new_dir("storage_"))
        with tracer.span("tuning.calibrate"):
            metrics.put("tuning.calibrate_s", timed(repro.calibrate_machine)[1])
        with tracer.span("tuning.auto_campaign"):
            manifest, tuned_s = timed(self._campaign, self.new_dir("tuned_"), tune="auto")
        self.info["tuning"] = manifest.tuning
        metrics.put(
            "tuning.predicted_over_actual",
            manifest.tuning["predicted_seconds"] / manifest.tuning["actual_seconds"],
        )
        metrics.put("tuning.auto_over_fixed", tuned_s / wall)
