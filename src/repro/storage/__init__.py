"""The chunk store and measured reports.

* :mod:`repro.storage.chunkstore` — :class:`ChunkStore`, the persistent,
  crash-safe and optionally quantized tier every campaign writes and every
  service reads.
* :mod:`repro.storage.address` — :func:`chunk_address`, the store's key,
  which campaigns and the serving tier both derive chunks' names with.
* :mod:`repro.storage.accounting` — reports over the pipeline's own
  objects: a fitted emulator's measured artifact bytes against its
  training data, and the bytes a campaign or a service emits per artifact
  byte.

The paper's archive arithmetic (CMIP-class archive sizes, dollars per TB
per year) is not part of the pipeline; the benches price it in
``benchmarks/paper_model/archive.py``.
"""

from repro.storage.accounting import (
    campaign_storage_report,
    cross_tier_storage_report,
    format_bytes,
    measured_artifact_report,
    serving_storage_report,
)
from repro.storage.address import chunk_address
from repro.storage.chunkstore import ChunkStore

__all__ = [
    "ChunkStore",
    "campaign_storage_report",
    "chunk_address",
    "cross_tier_storage_report",
    "format_bytes",
    "measured_artifact_report",
    "serving_storage_report",
]
