"""``serve_mixed_L32`` — on-demand serving, closed loop, 2 client threads.

Each client sends its next request only when the previous one returned
(callers wait for replies), BLAS is pinned to one thread.  ``serving``
(cache, assemble, flights) and ``storage`` reads set throughput and the
median; ``core`` + ``sht`` at batch-of-one set the tail.  It uses
``storage`` and ``core`` the opposite way from ``campaign_L64``: many
single-chunk reads and write-through puts against few large commits,
B = 1 against B = 4.
"""

from __future__ import annotations

import os
import shutil
import threading
import time

import numpy as np

import repro

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    SCENARIOS, STEPS_PER_YEAR, Workload, canonical_chunk, child_int, child_seed,
    era5_ensemble, fit_config, min_seconds, sha256, timed,
)

N_CLIENTS = 2
CLASSES = ("hot", "store", "cold")
#: Share of the requests in each class.  The cold share is at least 3 %
#: so that p99 sits inside the cold class, not on its edge.
CLASS_SHARES = (0.70, 0.25, 0.05)
N_VERIFIED_PER_CLASS = 20


def make_schedule(
    rng: np.random.Generator, n_requests: int, stored: list, n_hot: int, cold_streams: list,
) -> tuple[list, np.ndarray]:
    """``(keys, classes)``: a seeded request schedule, classes interleaved at random.

    The work is the same for every seed; only its order and its keys are
    drawn.  The class counts are exact (70/25/5 of ``n_requests``).
    ``hot`` keys are a fixed subset of the stored keys small enough for
    the cache; ``store`` keys are the other stored keys, which do not fit
    beside them (read-through and eviction).  Every ``cold`` request is
    one year nobody asked before of a stream that was never stored, so
    it is synthesized: two in three open a fresh stream at year 0, the
    third asks year 1 of the stream opened two cold requests earlier,
    which is still paused and resumes.
    """
    order = rng.permutation(len(stored))
    hot = [stored[i] for i in order[:n_hot]]
    rest = [stored[i] for i in order[n_hot:]]
    counts = [round(share * n_requests) for share in CLASS_SHARES[:-1]]
    counts.append(n_requests - sum(counts))
    classes = rng.permutation(np.repeat(np.arange(len(CLASSES)), counts))
    fresh = iter(cold_streams[i] for i in rng.permutation(len(cold_streams)))
    cold: list = []
    for i in range(counts[2]):
        cold.append((*cold[i - 2][:2], 1) if i % 3 == 2 else (*next(fresh), 0))
    cold_keys = iter(cold)
    keys = [
        hot[rng.integers(len(hot))] if cls == 0
        else rest[rng.integers(len(rest))] if cls == 1
        else next(cold_keys)
        for cls in classes
    ]
    return keys, classes


class ServeWorkload(Workload):
    name = "serve_mixed_L32"
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.lmax = 8 if smoke else 32
        self.n_requests = 300 if smoke else 1500
        self.n_stored_realizations = 4
        self.n_stored_years = 6
        self.n_hot = 32
        self.cache_chunks = 48
        self.config = fit_config(self.lmax)
        self.path = os.path.join(self.workdir, "emulator.npz")
        self.references: dict = {}
        self.last_stats: dict = {}

    def make_schedule(self) -> None:
        """The request schedule and which of its requests are verified."""
        stored = [
            (s, r, y) for s in SCENARIOS
            for r in range(self.n_stored_realizations) for y in range(self.n_stored_years)
        ]
        cold_streams = [
            (s, r) for s in SCENARIOS
            for r in range(self.n_stored_realizations, self.n_stored_realizations + 24)
        ]
        rng = np.random.default_rng(child_seed(self.seed, 2))
        self.keys, self.classes = make_schedule(
            rng, self.n_requests, stored, self.n_hot, cold_streams
        )
        self.requests = [
            repro.FieldRequest(s, realization=r, year_start=y) for s, r, y in self.keys
        ]
        # Requests whose served arrays are kept and compared afterwards.
        self.verified = sorted(
            int(i) for cls in range(len(CLASSES))
            for i in rng.permutation(np.flatnonzero(self.classes == cls))[:N_VERIFIED_PER_CLASS]
        )

    def make_inputs(self) -> str:
        self.ensemble, self.generate_s = timed(
            era5_ensemble, self.lmax, 2, 3, child_int(self.seed, 0)
        )
        self.service_seed = child_int(self.seed, 1)
        self.make_schedule()
        grid = self.ensemble.grid
        self.chunk_bytes = STEPS_PER_YEAR * grid.ntheta * grid.nphi * 8
        return sha256(self.ensemble.data, self.service_seed, self.keys, self.verified)

    def setup(self) -> None:
        repro.clear_plan_cache()
        _, self.plan_build_s = timed(
            repro.get_plan, self.config.sht_method, self.lmax, self.ensemble.grid
        )
        self.emulator = repro.fit(self.ensemble, self.config)
        repro.save(self.emulator, self.path)
        self.prewarmed = self.new_dir("prewarmed_")
        repro.run_campaign(
            self.path, list(SCENARIOS), n_realizations=self.n_stored_realizations,
            n_times=self.n_stored_years * STEPS_PER_YEAR, seed=self.service_seed,
            max_workers=1, executor="thread", batch_size=self.n_stored_realizations,
            collect="none", store=self.prewarmed,
        )
        self._play(self._open_service()[0], n_requests=min(200, self.n_requests))

    def _open_service(self):
        """``(service, startup seconds)`` over a fresh copy of the pre-warmed root."""
        root = self.new_dir("store_")
        shutil.copytree(self.prewarmed, root, dirs_exist_ok=True)
        self.round_root = root
        return timed(
            repro.serve, self.path, seed=self.service_seed, store=root,
            cache_bytes=self.cache_chunks * self.chunk_bytes,
        )

    def _play(self, service, n_requests=None, tracer=None, parent=None):
        """Play the schedule closed-loop; ``(wall, latencies, kept, errors)``."""
        n = n_requests or self.n_requests
        latencies = np.zeros(n)
        kept: dict = {}
        errors = []
        verified = set(self.verified)

        def client(first: int) -> None:
            for i in range(first, n, N_CLIENTS):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        result = service.get(self.requests[i])
                    else:
                        name = f"serving.get.{CLASSES[self.classes[i]]}"
                        with tracer.span(name, parent=parent):
                            result = service.get(self.requests[i])
                except Exception as error:  # counted as a failed request
                    errors.append((i, repr(error)))
                    continue
                finally:
                    latencies[i] = time.perf_counter() - start
                if i in verified:
                    kept[i] = result

        threads = [threading.Thread(target=client, args=(j,)) for j in range(N_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, latencies, kept, errors

    def _verify(self, kept: dict, errors: list) -> None:
        bad = {i for i, _ in errors}
        for i, served in kept.items():
            key = self.keys[i]
            if key not in self.references:
                self.references[key] = canonical_chunk(self.emulator, *key, self.service_seed)
            if not np.array_equal(served, self.references[key]):
                bad.add(i)
        if errors:
            self.info["first_error"] = errors[0][1]
        self.attempted += self.n_requests
        self.failed += len(bad)

    def round(self) -> dict:
        service, startup_s = self._open_service()
        wall, latencies, kept, errors = self._play(service)
        self.last_stats = service.stats()
        self._verify(kept, errors)
        shutil.rmtree(self.round_root)
        ms = latencies * 1e3
        stages = {
            "round": wall,
            "startup": startup_s,
            "req_per_s": self.n_requests / wall,
            "p50_ms": float(np.percentile(ms, 50)),
            "p99_ms": float(np.percentile(ms, 99)),
        }
        for cls, name in enumerate(CLASSES):
            stages[f"{name}_p50_ms"] = float(np.median(ms[self.classes == cls]))
        return stages

    def report(self, rounds: dict, metrics) -> None:
        fields = self.n_requests * STEPS_PER_YEAR
        metrics.put_timing("ms_per_field", rounds["round"], 1e3 / fields)
        metrics.put_timing("req_per_s", rounds["req_per_s"])
        metrics.put_timing("p50_ms", rounds["p50_ms"])
        metrics.put_timing("p99_ms", rounds["p99_ms"])
        counts = np.bincount(self.classes, minlength=len(CLASSES))
        self.info["class_counts"] = dict(zip(CLASSES, (int(c) for c in counts)))
        self.info["samples_beyond_p99"] = self.n_requests // 100
        self.info["clients"] = N_CLIENTS

    def trace(self, tracer, seconds: float, rounds: dict, metrics) -> None:
        # The span covers the clients' wall only, as the untraced round wall does.
        service, _ = self._open_service()
        with tracer.span("round") as round_id:
            _, _, kept, errors = self._play(service, tracer=tracer, parent=round_id)
        shutil.rmtree(self.round_root)
        self._verify(kept, errors)
        stats = self.last_stats
        cache, synthesis = stats["chunk_cache"], stats["synthesis"]
        metrics.put("data.generate_s", self.generate_s)
        layers.plan_metrics(metrics, self.plan_build_s)
        metrics.put("serving.hot_p50_us", min(rounds["hot_p50_ms"]) * 1e3)
        metrics.put("serving.store_p50_ms", min(rounds["store_p50_ms"]))
        metrics.put("serving.cold_p50_ms", min(rounds["cold_p50_ms"]))
        metrics.put(
            "serving.cold_ms_per_field",
            synthesis["seconds"] * 1e3 / (synthesis["chunks"] * STEPS_PER_YEAR),
        )
        metrics.put("serving.cache_hit_share", cache["hits"] / (cache["hits"] + cache["misses"]))
        metrics.put("serving.store_hit_share", stats["store_chunk_hits"] / stats["requests"])
        metrics.put("serving.evictions", cache["evictions"])
        metrics.put("serving.flights", synthesis["flights"])
        metrics.put("serving.coalesced_share", synthesis["coalesced_waits"] / stats["requests"])
        metrics.put("serving.stream_resumes", synthesis["stream_resumes"])
        metrics.put("serving.startup_s", min(rounds["startup"]))

        def one_year():
            return list(self.emulator.emulate_stream(
                n_realizations=1, n_times=STEPS_PER_YEAR, annual_forcing=SCENARIOS[0],
                rng=np.random.default_rng(0), chunk_size=STEPS_PER_YEAR,
            ))

        with tracer.span("core.generate"):
            one_year_s = min_seconds(one_year, 0.3)
        metrics.put("core.generate_b1_ms_per_field", one_year_s * 1e3 / STEPS_PER_YEAR)
        layers.synthesis_parts(tracer, metrics, self.emulator, 1)
        store = repro.ChunkStore(self.prewarmed)
        chunks = {address: store.get(address) for address in store.addresses()[:8]}
        layers.storage_layer(tracer, metrics, chunks, self.new_dir("storage_"))
        layers.obs_overhead(tracer, metrics, lambda: self.round()["round"], 1)
