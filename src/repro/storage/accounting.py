"""Byte counts for humans: the helper the examples print storage numbers with.

The numbers themselves live on the objects that hold them:
:meth:`~repro.core.emulator.ClimateEmulator.storage_summary` (raw
training bytes against parameter and measured artifact bytes),
:class:`~repro.scenarios.campaign.CampaignManifest` (output bytes,
artifact bytes, wall time), :meth:`ChunkStore.stats()
<repro.storage.chunkstore.ChunkStore.stats>` and
:meth:`EmulationService.stats() <repro.serving.service.EmulationService.stats>`.
"""

from __future__ import annotations

__all__ = ["format_bytes"]


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (KB/MB/GB/TB/PB)."""
    units = ["B", "KB", "MB", "GB", "TB", "PB", "EB"]
    value = float(nbytes)
    for unit in units:
        if abs(value) < 1000.0 or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= 1000.0
    return f"{value:.2f} EB"  # pragma: no cover - unreachable
