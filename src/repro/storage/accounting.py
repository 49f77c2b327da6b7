"""Measured storage reports over the pipeline's own objects.

The "boosting" side of the paper's storage story, measured rather than
modelled: the bytes of a fitted emulator's artifact against the training
data it stands in for (:func:`measured_artifact_report`), and the bytes a
campaign or a service emits, and its chunk store keeps, per artifact byte
(:func:`campaign_storage_report`, :func:`serving_storage_report`,
:func:`cross_tier_storage_report`).
"""

from __future__ import annotations

import numpy as np

from repro.storage.chunkstore import ChunkStore

__all__ = [
    "campaign_storage_report",
    "cross_tier_storage_report",
    "measured_artifact_report",
    "serving_storage_report",
    "format_bytes",
]


def measured_artifact_report(emulator) -> dict:
    """Measured on-disk artifact bytes next to the theoretical parameter bytes.

    :meth:`~repro.core.emulator.ClimateEmulator.parameter_bytes` counts
    parameter *values*; this report serialises a fitted
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
