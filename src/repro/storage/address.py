"""Content addresses: the keys the chunk store files chunks under.

An address is the sha256 of a canonical JSON payload (sorted keys, no
whitespace), so it is a pure function of the payload's values.  Two
kinds are built on :func:`content_address`:

* the *stream* address of a resolved scenario and nugget flag —
  :func:`repro.scenarios.registry.stream_address`;
* the *chunk* address of one model year of one realization of a stream
  — :func:`chunk_address` here, because it is the store's key.

Campaigns and the serving tier derive both through these functions, so
a chunk a campaign stored is the chunk a request asks for.  Stores and
campaign manifests persist the hex digests: the payload layouts never
change without a new :data:`ADDRESS_SCHEMA`.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

__all__ = ["ADDRESS_SCHEMA", "chunk_address", "content_address"]

#: Canonical-state schema version, folded into every address so a future
#: layout change can never collide with old addresses.
ADDRESS_SCHEMA = 1

#: Chunk addresses remembered (least recently used out).  A served
#: request re-derives one per year it spans; the memo turns that into a
#: lookup for every chunk the cache or the store can answer.
_CHUNK_MEMO = 4096


def content_address(payload: dict) -> str:
    """Deterministic hex digest of a JSON-able payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def chunk_address(stream_address: str, realization: int, year: int) -> str:
    """Content-address of one model-year chunk of one synthesis stream.

    The triple ``(stream, realization, year)`` fully determines the
    chunk's bits (see :class:`~repro.serving.service.EmulationService`'s
    determinism contract), so the address is usable as a cache key, a
    store shard name and a cross-process identity all at once.
    """
    return _chunk_address(str(stream_address), int(realization), int(year))


@lru_cache(maxsize=_CHUNK_MEMO)
def _chunk_address(stream: str, realization: int, year: int) -> str:
    # Keyed on the coerced values the payload holds, so equal keys can
    # only ever mean equal addresses.
    return content_address({
        "schema": ADDRESS_SCHEMA,
        "kind": "chunk",
        "stream": stream,
        "realization": realization,
        "year": year,
    })
