"""On-demand emulation serving.

The serving layer answers *requests for fields* instead of commands to
emulate: a frozen, content-addressed :class:`FieldRequest` names what is
wanted (scenario, realization, year range, optional spatial window) and
:class:`EmulationService` serves it from the cheapest tier that has it —
an in-process bytes-capped LRU of model-year chunks, an optional
persistent :class:`~repro.storage.chunkstore.ChunkStore`, or synthesis
through the one streaming path (single flight, one flight per
realization).  ``repro.serve(...)`` on the facade builds a service in one
call.
"""

from repro.serving.request import FieldRequest
from repro.serving.service import EmulationService
from repro.storage.address import chunk_address

__all__ = [
    "EmulationService",
    "FieldRequest",
    "chunk_address",
]
