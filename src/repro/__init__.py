"""repro — reproduction of the SC 2024 exascale climate emulator.

This package reimplements, in pure Python/NumPy, the emulator described in
"Boosting Earth System Model Outputs And Saving PetaBytes in Their Storage
Using Exascale Climate Emulators" (Abdulah et al., SC 2024) as one
pipeline: :func:`fit` → artifact → :func:`run_campaign` / :func:`serve` →
chunk store.  ``import repro`` loads every module below except
:mod:`repro.stats`, the diagnostics a caller imports on demand.

* :mod:`repro.api` — the public API layer: the versioned
  :class:`EmulatorArtifact` persistence format, the
  :class:`UnknownBackendError` every unknown name raises, and the
  :func:`fit` / :func:`save` / :func:`load` / :func:`emulate` /
  :func:`emulate_stream` facade re-exported here.
* :mod:`repro.sht` — spherical harmonic transform substrate (Eqs. 3-8),
  including the process-wide plan cache (:func:`get_plan`) and the
  batched GEMM/FFT synthesis path behind emulation generation.
* :mod:`repro.core` — the climate emulator itself: distributed-lag mean
  trend, spectral stochastic model with a diagonal VAR, innovation
  covariance and Cholesky factorisation, and emulation generation.
* :mod:`repro.linalg` — tile-based mixed-precision dense linear algebra:
  the DP / DP-SP / DP-SP-HP / DP-HP Cholesky variants whose factor is the
  stored emulator.
* :mod:`repro.tuning` — autotuning by measurement: the pilot behind
  ``run_campaign(..., tune="auto")`` (time the campaign's own first
  blocks, keep the fastest block size) and :func:`calibrate_machine`.
* :mod:`repro.data` — synthetic ERA5-like data generation and
  ensembles.
* :mod:`repro.scenarios` — the scenario engine: composable forcing
  components summed into named :class:`ScenarioSpec` pathways (resolved
  through the :data:`SCENARIOS` dict) and the batched
  multi-scenario, multi-realization campaign runner :func:`run_campaign`.
* :mod:`repro.serving` — the on-demand emulation service: content-addressed
  :class:`FieldRequest` objects served by :class:`EmulationService` from
  a bytes-capped chunk cache, an optional persistent
  :class:`ChunkStore`, or coalesced batched synthesis
  (built via :func:`serve`).
* :mod:`repro.storage` — the chunk store and measured reports: the
  persistent quantizable :class:`ChunkStore` tier and the measured
  artifact / campaign / serving storage reports.
* :mod:`repro.stats` — statistical-consistency diagnostics between
  simulations and emulations.
* :mod:`repro.obs` — the unified telemetry layer: a thread-safe metrics
  registry plus hierarchical tracing spans instrumenting every hot path
  (fit, both SHT directions, the plan cache, serving, chunk-store I/O
  and campaigns), exported as JSON-lines traces for
  ``tools/tracereport.py``.

The paper's machine-scale cost model (Frontier, Alps, Leonardo, Summit)
and its archive arithmetic are not part of the pipeline; the paper benches
price them with ``benchmarks/paper_model/``.

Quickstart
----------
>>> import repro                                           # doctest: +SKIP
>>> sims = repro.Era5LikeGenerator(
...     repro.Era5LikeConfig(lmax=16, n_years=5)).generate()  # doctest: +SKIP
>>> emulator = repro.fit(sims, lmax=16)                    # doctest: +SKIP
>>> repro.save(emulator, "emulator.npz")                   # doctest: +SKIP
>>> emulations = repro.emulate("emulator.npz", 5)          # doctest: +SKIP
>>> manifest = repro.run_campaign(                         # doctest: +SKIP
...     "emulator.npz", ["ssp-low", "ssp-medium", "ssp-high"],
...     n_realizations=5)
"""

__version__ = "1.20.0"

from repro import obs
from repro.core.config import EmulatorConfig
from repro.core.emulator import ClimateEmulator
from repro.core.window import SpatialWindow
from repro.data.ensemble import ClimateEnsemble
from repro.data.era5_like import Era5LikeConfig, Era5LikeGenerator
from repro.sht.plancache import clear_plan_cache, get_plan, plan_cache_stats
from repro.util.registry import UnknownBackendError
from repro.api.artifact import (
    SCHEMA_VERSION,
    ArtifactError,
    EmulatorArtifact,
    SchemaVersionError,
)
from repro.api.facade import emulate, emulate_stream, fit, load, save, serve
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.registry import SCENARIOS, list_scenarios, register_scenario
from repro.storage.chunkstore import ChunkStore
# Imported after the facade: the campaign runner and the serving layer
# build on repro.api.
from repro.scenarios.campaign import CampaignManifest, iter_chunk_arrays, run_campaign
from repro.serving.request import FieldRequest
from repro.serving.service import EmulationService
from repro.tuning import MachineProfile, calibrate_machine

__all__ = [
    "ArtifactError",
    "CampaignManifest",
    "ChunkStore",
    "ClimateEmulator",
    "ClimateEnsemble",
    "EmulationService",
    "EmulatorArtifact",
    "EmulatorConfig",
    "Era5LikeConfig",
    "Era5LikeGenerator",
    "FieldRequest",
    "MachineProfile",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "SchemaVersionError",
    "SpatialWindow",
    "UnknownBackendError",
    "__version__",
    "calibrate_machine",
    "clear_plan_cache",
    "emulate",
    "emulate_stream",
    "fit",
    "get_plan",
    "iter_chunk_arrays",
    "list_scenarios",
    "load",
    "obs",
    "plan_cache_stats",
    "register_scenario",
    "run_campaign",
    "save",
    "serve",
]
