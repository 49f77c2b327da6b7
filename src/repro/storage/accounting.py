"""Storage arithmetic behind the paper's petabyte-savings claims.

Raw archives store every field value of every member: ``R * T * N_theta *
N_phi`` numbers per variable.  The emulator instead stores per-location
trend/scale parameters (``O(N_theta * N_phi)``), the diagonal VAR
coefficients (``O(P L^2)``) and the innovation covariance factor
(``O(L^4)``), from which arbitrarily many statistically consistent members
can be regenerated on demand.  For long records and large ensembles the
ratio is enormous — this module quantifies it, including the NCAR
$45/TB/year cost figure quoted in the introduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sht.grid import Grid
from repro.storage.chunkstore import ChunkStore

__all__ = [
    "StorageScenario",
    "CMIP6_ARCHIVE",
    "archive_bytes",
    "campaign_storage_report",
    "cross_tier_storage_report",
    "emulator_parameter_bytes",
    "measured_artifact_report",
    "savings_report",
    "serving_storage_report",
    "format_bytes",
]

#: Cost of keeping one terabyte on disk for a year at NCAR (Section I).
DOLLARS_PER_TB_YEAR = 45.0

#: Context figures quoted in the introduction (bytes).
CMIP6_ARCHIVE = {
    "cmip3_total": 40.0e12,
    "cmip5_total": 2.0e15,
    "cmip6_total": 28.0e15,
    "ncar_cmip6_post_processed": 2.0e15,
    "giss_cmip6": 147.0e12,
    "scream_per_simulated_day": 4.5e12,
    "icon_dyamond_per_output_sample": 1.0e12,
}


@dataclass(frozen=True)
class StorageScenario:
    """A simulation archive whose storage the emulator can stand in for.

    Parameters
    ----------
    name:
        Label used in reports.
    grid:
        Spatial grid of the archived fields.
    n_years:
        Length of the record in years.
    steps_per_year:
        Temporal resolution (8760 hourly, 365 daily, 12 monthly).
    n_ensemble:
        Number of archived ensemble members.
    n_variables:
        Number of archived 2-D fields (the paper's study uses surface
        temperature only; CMIP archives store hundreds).
    bytes_per_value:
        Stored element size (4 for float32 archives).
    """

    name: str
    grid: Grid
    n_years: float
    steps_per_year: int
    n_ensemble: int = 1
    n_variables: int = 1
    bytes_per_value: int = 4

    @property
    def n_time(self) -> int:
        """Number of archived time steps."""
        return int(round(self.n_years * self.steps_per_year))

    @property
    def n_values(self) -> int:
        """Total stored values."""
        return (
            self.n_ensemble
            * self.n_variables
            * self.n_time
            * self.grid.npoints
        )


def archive_bytes(scenario: StorageScenario) -> float:
    """Raw archive size in bytes."""
    return float(scenario.n_values) * scenario.bytes_per_value


def emulator_parameter_bytes(
    grid: Grid,
    lmax: int,
    var_order: int = 3,
    n_trend_params: int = 14,
    bytes_per_value: float = 8.0,
    store_full_covariance: bool = True,
) -> float:
    """Footprint of the fitted emulator parameters in bytes.

    ``n_trend_params`` counts the per-location values of Eq. (2)
    (``beta_0, beta_1, beta_2, rho, {a_k, b_k}_{k<=K}, sigma, v``; the paper's
    ``K = 5`` gives 14 when the scale and nugget fields are included).  The
    spectral side stores the ``P`` diagonal VAR matrices (``P L^2`` values)
    and either the full innovation covariance factor (``L^2 (L^2 + 1)/2``)
    or, when ``store_full_covariance`` is false, a diagonal approximation.
    """
    k = lmax * lmax
    per_location = n_trend_params * grid.npoints
    var_params = var_order * k
    cov_params = k * (k + 1) // 2 if store_full_covariance else k
    return float(per_location + var_params + cov_params) * bytes_per_value


def savings_report(
    scenario: StorageScenario,
    lmax: int,
    var_order: int = 3,
    dollars_per_tb_year: float = DOLLARS_PER_TB_YEAR,
    store_full_covariance: bool = True,
) -> dict:
    """Raw-versus-emulator storage comparison for a scenario.

    ``store_full_covariance=False`` corresponds to keeping only the diagonal
    innovation variances (appropriate at very high band-limits, where the
    dense ``L^2 x L^2`` factor would itself approach the raw-data volume).
    """
    raw = archive_bytes(scenario)
    emulator = emulator_parameter_bytes(
        scenario.grid, lmax, var_order=var_order,
        store_full_covariance=store_full_covariance,
    )
    saved = max(raw - emulator, 0.0)
    return {
        "scenario": scenario.name,
        "raw_bytes": raw,
        "emulator_bytes": emulator,
        "saved_bytes": saved,
        "compression_factor": raw / emulator if emulator else float("inf"),
        "raw_petabytes": raw / 1.0e15,
        "saved_petabytes": saved / 1.0e15,
        "annual_cost_raw_usd": raw / 1.0e12 * dollars_per_tb_year,
        "annual_cost_emulator_usd": emulator / 1.0e12 * dollars_per_tb_year,
        "annual_savings_usd": saved / 1.0e12 * dollars_per_tb_year,
    }


def measured_artifact_report(emulator) -> dict:
    """Measured on-disk artifact bytes next to the theoretical parameter bytes.

    ``savings_report`` and :func:`emulator_parameter_bytes` count parameter
    *values*; this report serialises a fitted
    :class:`~repro.core.emulator.ClimateEmulator` to its NPZ artifact in
    memory and reports what the bytes actually come out to — format
    overhead included, and the factor's tiles at their storage precision
    (members are stored, not compressed) — the honest version of the
    petabyte-savings arithmetic.
    """
    measured = emulator.measured_artifact_bytes()
    theoretical = emulator.parameter_bytes()
    summary = emulator.training_summary
    raw = summary.raw_bytes(np.float32) if summary is not None else 0
    return {
        "measured_artifact_bytes": measured,
        "parameter_bytes": theoretical,
        "format_overhead_factor": measured / theoretical if theoretical else float("inf"),
        "raw_bytes_float32": raw,
        "measured_compression_factor": raw / measured if measured else float("inf"),
        "theoretical_compression_factor": raw / theoretical if theoretical else float("inf"),
    }


def campaign_storage_report(manifest, store=None) -> dict:
    """The "boosting" arithmetic for a scenario campaign.

    A campaign replays one small artifact into many emulated members; this
    report quantifies the amplification: the measured bytes of generated
    output across every run of a
    :class:`~repro.scenarios.campaign.CampaignManifest` (or its
    ``to_dict()`` form) against the measured bytes of the artifact that
    produced them.  The boost factor is the storage story run in reverse —
    instead of compressing an existing archive, the same ratio measures
    how much archive-equivalent data one artifact can emit.

    For a store-backed campaign (``run_campaign(store=...)``) pass the
    :class:`~repro.storage.chunkstore.ChunkStore` (or its ``stats()``
    dict) as ``store`` to add the persistent-tier ledger: the encoded
    shard footprint, its measured ``max_abs_error``, and
    ``store_boost_factor`` — the full-precision bytes the store can
    re-serve per artifact byte.  ``store=None`` on a store-backed
    manifest opens the store the manifest's header records and reports
    its live totals; if that root is gone, the header's root/encoding
    are reported with zero byte totals.
    """
    if not isinstance(manifest, dict):
        manifest = manifest.to_dict()
    total = int(manifest["total_output_bytes"])
    artifact = int(manifest.get("artifact_bytes", 0))
    n_runs = int(manifest["n_runs"])
    scenarios = list(manifest.get("scenarios", []))
    # Wall-clock throughput from the manifest's span-sourced timing
    # block; manifests written before timing existed report 0.0.
    wall = float(manifest.get("timing", {}).get("total_wall_seconds", 0.0))
    report = {
        "n_runs": n_runs,
        "n_scenarios": len(scenarios),
        "campaign_output_bytes": total,
        "artifact_bytes": artifact,
        "boost_factor": total / artifact if artifact else float("inf"),
        "output_bytes_per_run": total / n_runs if n_runs else 0.0,
        "wall_seconds": wall,
        "runs_per_second": n_runs / wall if wall > 0.0 else 0.0,
        "output_bytes_per_second": total / wall if wall > 0.0 else 0.0,
    }
    header = manifest.get("store")
    stats = None
    if store is not None:
        stats = store if isinstance(store, dict) else store.stats()
    elif header is not None:
        try:
            stats = ChunkStore(
                str(header["root"]), encoding=str(header["encoding"])
            ).stats()
        except (OSError, ValueError):
            stats = None  # root moved or re-encoded; report the header
    if stats is not None or header is not None:
        stored = int(stats["decoded_bytes"]) if stats else 0
        encoded = int(stats["encoded_bytes"]) if stats else 0
        report["store"] = {
            "root": stats["root"] if stats else str(header["root"]),
            "encoding": stats["encoding"] if stats else str(header["encoding"]),
            "n_chunks": int(stats["n_chunks"]) if stats else 0,
            "encoded_bytes": encoded,
            "decoded_bytes": stored,
            "max_abs_error": float(stats["max_abs_error"]) if stats else 0.0,
            "compression_factor": (
                float(stats["compression_factor"]) if stats else float("inf")
            ),
            # What the persistent tier amplifies the artifact into: the
            # full-precision bytes it re-serves without any synthesis.
            "store_boost_factor": stored / artifact if artifact else float("inf"),
        }
    return report


def serving_storage_report(service) -> dict:
    """The "boosting" arithmetic for an on-demand emulation service.

    :func:`campaign_storage_report` measures a batch replay; this is the
    serving-side counterpart: the measured ``float64`` bytes an
    :class:`~repro.serving.service.EmulationService` (or its ``stats()``
    dict) has *served* against the bytes of the artifact it serves from
    — the live version of the paper's artifact-to-output boost factor.
    When a persistent :class:`~repro.storage.chunkstore.ChunkStore` is
    attached, its encoded footprint and measured quantization error are
    included, so the report quantifies the full storage ladder:
    artifact < chunk shards < served output.
    """
    stats = service if isinstance(service, dict) else service.stats()
    served = int(stats["served_bytes"])
    artifact = int(stats.get("artifact_bytes", 0))
    synthesized = int(stats["synthesis"]["chunks"])
    store = stats.get("store")
    report = {
        "requests": int(stats["requests"]),
        "served_bytes": served,
        "artifact_bytes": artifact,
        "boost_factor": served / artifact if artifact else float("inf"),
        "synthesized_chunks": synthesized,
        "store_encoded_bytes": int(store["encoded_bytes"]) if store else 0,
        "store_lossless": bool(store["lossless"]) if store else True,
        "store_max_abs_error": float(store["max_abs_error"]) if store else 0.0,
    }
    return report


def cross_tier_storage_report(manifest, service) -> dict:
    """The boost factor across *both* tiers of one shared chunk store.

    The unified storage engine's headline number: a campaign
    (``run_campaign(store=...)``) lands chunks in the
    :class:`~repro.storage.chunkstore.ChunkStore`, the
    :class:`~repro.serving.service.EmulationService` serves them back
    out of the same root, and this report merges
    :func:`campaign_storage_report` and :func:`serving_storage_report`
    over that shared tier:

    * ``emitted_bytes`` — campaign output plus served output, the total
      archive-equivalent data the one artifact produced;
    * ``cross_tier_boost_factor`` — ``emitted_bytes / artifact_bytes``,
      the paper's boost arithmetic spanning batch and on-demand tiers;
    * ``store_amplification`` — ``emitted_bytes`` per encoded shard
      byte: how much output each persistent byte stands behind (rises
      with the quantized encodings and with every re-serve);
    * ``prewarmed_fraction`` — served requests' store hits over store
      hits plus synthesized chunks: 1.0 means the campaign pre-warmed
      every chunk serving needed (the zero-cold-flight regime).

    Parameters
    ----------
    manifest:
        A :class:`~repro.scenarios.campaign.CampaignManifest` or its
        dict form.
    service:
        The :class:`~repro.serving.service.EmulationService` over the
        same store root, or its ``stats()`` dict.
    """
    stats = service if isinstance(service, dict) else service.stats()
    store_stats = stats.get("store")
    campaign = campaign_storage_report(manifest, store=store_stats)
    serving = serving_storage_report(stats)
    artifact = max(campaign["artifact_bytes"], serving["artifact_bytes"])
    emitted = campaign["campaign_output_bytes"] + serving["served_bytes"]
    encoded = serving["store_encoded_bytes"]
    store_hits = int(stats.get("store_chunk_hits", 0))
    synthesized = serving["synthesized_chunks"]
    resolved = store_hits + synthesized
    return {
        "artifact_bytes": artifact,
        "campaign_output_bytes": campaign["campaign_output_bytes"],
        "served_bytes": serving["served_bytes"],
        "emitted_bytes": emitted,
        "cross_tier_boost_factor": emitted / artifact if artifact else float("inf"),
        "store_encoded_bytes": encoded,
        "store_amplification": emitted / encoded if encoded else float("inf"),
        "store_max_abs_error": serving["store_max_abs_error"],
        "store_lossless": serving["store_lossless"],
        "store_chunk_hits": store_hits,
        "synthesized_chunks": synthesized,
        "prewarmed_fraction": store_hits / resolved if resolved else 1.0,
        "campaign": campaign,
        "serving": serving,
    }


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (KB/MB/GB/TB/PB)."""
    units = ["B", "KB", "MB", "GB", "TB", "PB", "EB"]
    value = float(nbytes)
    for unit in units:
        if abs(value) < 1000.0 or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= 1000.0
    return f"{value:.2f} EB"  # pragma: no cover - unreachable
