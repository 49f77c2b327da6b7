"""The revision stamp of the numerics that produce stored output bits.

A field is a pure function of *(artifact, seed, request)* only for a
fixed implementation: a change that reassociates a sum in the transform,
the generator or the factor draw moves the low bits of every synthesised
field.  :data:`NUMERICS_REVISION` names the implementation.  Persistent
tiers stamp what they write with it and refuse to answer for another
revision (:class:`repro.storage.chunkstore.ChunkStore`), so old stores
never serve new code's requests with old code's bits.

**Bump it in any change that moves output bits** — a different
reduction order, a refactored operator, a new FFT routine — and only
then; a change that provably keeps every bit leaves it alone.
"""

from __future__ import annotations

__all__ = ["NUMERICS_REVISION"]

#: Revision log (stores written before the stamp existed read as 0):
#: 1 — the real-field transform: orders ``m >= 0``, real operators, a
#: run-time cosine / sine transform over colatitude;
#: 2 — the colatitude transform folded into the operators at plan build;
#: 3 — innovations drawn through the factor's row panels, per stored precision.
NUMERICS_REVISION = 3
