"""What every workload shares: the declared metrics, seeding, timing, the workload interface."""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from benchmarks.e2e.cli import spec
from benchmarks.e2e.tracer import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

SCENARIOS = ("ssp-low", "ssp-medium", "ssp-high")
STEPS_PER_YEAR = 24


def child_seed(seed: int, key: int) -> np.random.SeedSequence:
    """The ``key``-th child of ``--seed``; every input is drawn from one."""
    return np.random.SeedSequence(int(seed), spawn_key=(int(key),))


def child_int(seed: int, key: int) -> int:
    """An integer seed (for APIs that take one) derived from a child."""
    return int(child_seed(seed, key).generate_state(1)[0])


def sha256(*parts) -> str:
    """Digest of arrays/strings: two runs with equal digests ran equal inputs."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(str(part).encode("utf-8"))
    return digest.hexdigest()


def timed(func, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def min_seconds(func, seconds: float, at_least: int = 2) -> float:
    """Min-of-rounds wall of ``func()``: diagnostics, not a gated timing."""
    best, spent, n = math.inf, 0.0, 0
    while n < at_least or spent < seconds:
        _, dt = timed(func)
        best, spent, n = min(best, dt), spent + dt, n + 1
    return best


def quartiles(values) -> dict:
    """Quartiles, extremes and count of a sample of timings."""
    values = sorted(float(v) for v in values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {
        "q1": q1, "median": median, "q3": q3,
        "min": values[0], "max": values[-1], "n": len(values),
    }


def tree_bytes(root: str) -> int:
    """Bytes of every file under ``root``."""
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


def era5_ensemble(lmax: int, n_ensemble: int, n_years: int, seed: int):
    """The common training data of the three emulator workloads."""
    config = repro.Era5LikeConfig(
        lmax=lmax, n_years=n_years, n_ensemble=n_ensemble,
        steps_per_year=STEPS_PER_YEAR, forcing_growth=1.0,
    )
    return repro.Era5LikeGenerator(config, seed=seed).generate()


def fit_config(lmax: int) -> "repro.EmulatorConfig":
    """The common fit configuration: defaults, the workload's L, 64-wide tiles."""
    return repro.EmulatorConfig(lmax=lmax, tile_size=64)


def canonical_chunk(emulator, scenario: str, realization: int, year: int, seed: int):
    """Year ``year`` of the canonical year-chunked stream of one realization.

    The reference every stored or served chunk is compared with, bit for
    bit: ``emulate_stream`` under ``SeedSequence(seed, spawn_key=(r,))``.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(realization),))
    )
    stream = emulator.emulate_stream(
        n_realizations=1, n_times=(year + 1) * STEPS_PER_YEAR,
        annual_forcing=scenario, rng=rng, chunk_size=STEPS_PER_YEAR,
    )
    for chunk in stream:
        last = chunk
    return last.data[0]


class Metrics:
    """The metrics of one run, by declared name, each recorded once."""

    def __init__(self):
        declared = spec()
        both = declared["end_to_end"] + declared["per_layer"]
        self.units = {m["name"]: m["unit"] for m in both}
        self.better = {m["name"]: m["better"] for m in both}
        self.end_to_end = [m["name"] for m in declared["end_to_end"]]
        self.per_layer = [m["name"] for m in declared["per_layer"]]
        self.values: dict[str, dict] = {}

    def put(self, name: str, value, **stats) -> None:
        if name not in self.units:
            raise KeyError(f"metric {name!r} is not declared in BENCHMARK.json")
        if name in self.values:
            raise KeyError(f"metric {name!r} recorded twice in one run")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value}")
        self.values[name] = {"value": value, "unit": self.units[name], **stats}

    def put_timing(self, name: str, samples, scale: float = 1.0) -> None:
        """Record a timing sampled once per round: its undisturbed-side quartile.

        On a shared machine interference only ever adds time, and it comes
        in bursts longer than a round, so the quartile on the better side
        (the lower one of a time, the upper one of a rate) repeats from run
        to run where the median does not.  Median, both quartiles, extremes
        and the sample count are kept beside it.
        """
        stats = quartiles([s * scale for s in samples])
        value = stats["q1" if self.better[name] == "lower" else "q3"]
        self.put(name, value, **stats)

    def driver_view(self, trace: bool) -> dict:
        """The metrics the final JSON line carries for ``--trace 0|1``.

        Every declared per-layer metric is present with ``--trace 1``; a
        layer this workload bypasses did no work and reads 0.
        """
        names = self.per_layer if trace else self.end_to_end
        return {
            name: {
                "value": self.values.get(name, {"value": 0.0})["value"],
                "unit": self.units[name],
            }
            for name in names
        }


class Workload:
    """One workload: seeded inputs, set-up, timed rounds, checks, layer replays."""

    name = ""
    #: How many times :meth:`setup` runs; ``setup_s`` reports the median.
    #: 1 where one set-up already costs more than the timed region.
    setup_repeats = 1
    min_rounds = 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"work_{self.name}_", dir=OUT_DIR)

    def make_inputs(self) -> str:
        """Generate every input from ``--seed``; returns their sha256 digest."""
        raise NotImplementedError

    def setup(self) -> None:
        """Everything the timed region needs, warm-up included."""
        raise NotImplementedError

    def round(self) -> dict:
        """One timed round: ``{stage: seconds}`` with the whole under ``"round"``.

        Output checks run here too, outside the timed stages, and count
        into ``attempted``/``failed``.
        """
        raise NotImplementedError

    def report(self, rounds: dict, metrics: Metrics) -> None:
        """Workload-level metrics from the per-stage samples of all rounds."""
        raise NotImplementedError

    def trace(self, tracer: Tracer, seconds: float, rounds: dict, metrics: Metrics) -> None:
        """Replay the stages layer by layer under spans.

        Each replayed round is one span called ``"round"`` whose children
        are the calls into the layers; ``rounds`` holds the untraced
        samples the replay is compared with.
        """
        raise NotImplementedError

    def new_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
