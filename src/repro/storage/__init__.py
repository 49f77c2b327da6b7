"""The chunk store.

* :mod:`repro.storage.chunkstore` — :class:`ChunkStore`, the persistent,
  crash-safe tier every campaign writes and every service reads, opened
  by one rule that refuses a lossy (``int16``) store.
* :mod:`repro.storage.address` — :func:`chunk_address`, the store's key,
  which campaigns and the serving tier both derive chunks' names with.
* :mod:`repro.storage.accounting` — :func:`format_bytes`, which the
  examples print byte counts with.

The storage numbers are read from the objects that hold them:
``ClimateEmulator.storage_summary()``, the campaign manifest and the
``stats()`` of a store or a service.  The paper's archive arithmetic
(CMIP-class archive sizes, dollars per TB per year) is not part of the
pipeline; the benches price it in ``benchmarks/paper_model/archive.py``.
"""

from repro.storage.accounting import format_bytes
from repro.storage.address import chunk_address
from repro.storage.chunkstore import ChunkStore

__all__ = ["ChunkStore", "chunk_address", "format_bytes"]
