"""Autotuning by measurement: time the campaign's own first blocks.

The paper schedules its solver against a machine model because a wrong
guess at exascale costs node-hours.  Locally the only knob that moves
campaign wall time is ``batch_size`` (worker count is flat and process
pools always lose on the sizes this package runs; ``docs/tuning.md`` has
the sweep), and every candidate value is bit-inert — so instead of
modelling the host, ``run_campaign(..., tune="auto")`` *pilots*: it runs
the plan's first same-scenario blocks at the largest candidate size
(twice: the first block of a campaign is cold), then at half of it, and
so on while halving is measurably faster per run.  The blocks are real
work whose records and store commits are kept, so the pilot costs
nothing but the runs spent at a non-winning size.

This module holds the search (:func:`_pilot_batch_size`; the campaign
runner supplies the callback that executes and times a block), the
serving-cache clamp behind ``serve(..., cache_bytes="auto")``, and
:func:`calibrate_machine`, which reads the host facts the clamp needs.
Nothing here spawns a worker, writes a file or imports another layer.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass

__all__ = ["MachineProfile", "calibrate_machine", "plan_serving_cache_bytes"]

#: Largest block the pilot starts from: past this the stacked synthesis
#: stops gaining from batching while peak memory keeps growing linearly.
_MAX_PILOT_BATCH = 32

#: A halved block counts as *measurably* faster only below this share of
#: the best seconds-per-run so far; one block per candidate is one
#: sample, so a win inside timer noise must not shrink the batch.
_FASTER_SHARE = 0.9

#: Serving-cache clamp: never below 64 MiB (a handful of chunks), never
#: above a quarter of physical memory.
_MIN_CACHE_BYTES = 64 * 2**20
_CACHE_MEMORY_FRACTION = 4

#: Working set the "auto" cache is sized for: this many concurrently
#: served streams, each with this many hot year-chunks.
_EXPECTED_STREAMS = 4
_CHUNKS_PER_STREAM = 16


@dataclass(frozen=True)
class MachineProfile:
    """The host facts tuning reads: identity, core count, physical memory.

    ``memory_bytes`` is 0 when the OS will not say.
    """

    hostname: str
    cpu_count: int
    memory_bytes: int


def calibrate_machine() -> MachineProfile:
    """Read this host's :class:`MachineProfile` (no benchmark, no I/O)."""
    try:
        memory = int(os.sysconf("SC_PAGE_SIZE")) * int(os.sysconf("SC_PHYS_PAGES"))
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        memory = 0
    return MachineProfile(
        hostname=socket.gethostname(),
        cpu_count=os.cpu_count() or 1,
        memory_bytes=memory,
    )


def plan_serving_cache_bytes(profile: MachineProfile, chunk_bytes: int) -> int:
    """Serving chunk-cache budget for ``chunk_bytes``-sized year chunks.

    The expected working set (4 streams x 16 hot chunks), clamped
    between 64 MiB and a quarter of ``profile.memory_bytes`` — the
    guardrails a human operator would apply.
    """
    working_set = max(int(chunk_bytes), 1) * _EXPECTED_STREAMS * _CHUNKS_PER_STREAM
    ceiling = (
        profile.memory_bytes // _CACHE_MEMORY_FRACTION
        if profile.memory_bytes > 0
        else _MIN_CACHE_BYTES * 16
    )
    return int(min(max(working_set, _MIN_CACHE_BYTES), max(ceiling, _MIN_CACHE_BYTES)))


def _pilot_batch_size(
    n_realizations: int, time_block, batch_size: "int | None" = None
) -> "tuple[int, float, list[dict]]":
    """Pick a block size by timing real blocks, largest candidate first.

    ``time_block(size)`` must execute the campaign's next same-scenario
    block of at most ``size`` runs and return ``(n_runs, wall_seconds)``,
    or ``None`` once no runs are left.  The search times the largest
    candidate, ``min(n_realizations, 32)``, twice — a freshly loaded
    emulator's first block pays one-off page faults on the dense factor
    (2x a warm block at L = 64), so it is sampled but only its warm
    repeat is compared — then halves while the halved block beats the
    best seconds-per-run so far by more than the :data:`_FASTER_SHARE`
    margin, and stops at the first candidate that does not (or at one
    run, or when the plan is exhausted).  A ``batch_size`` the caller
    pinned is returned as is, after timing one block of it: the
    prediction still wants a measured seconds-per-run.

    Returns ``(batch_size, seconds_per_run, samples)``: the winner, the
    best measured rate, and one ``{"batch_size", "seconds_per_run"}``
    sample per block timed, in order.  A sample is keyed by the runs the
    block actually held, which is smaller than the candidate when a
    scenario's tail was shorter.
    """
    search = batch_size is None
    size = min(int(n_realizations), _MAX_PILOT_BATCH) if search else int(batch_size)
    samples: "list[dict]" = []
    best = (size, 0.0)
    while size >= 1:
        timed = time_block(size)
        if timed is None:
            break
        n_runs, seconds = timed
        rate = float(seconds) / n_runs
        samples.append({"batch_size": int(n_runs), "seconds_per_run": rate})
        # Sample 1 is the cold block and sample 2 its warm repeat, which
        # replaces it uncompared; from sample 3 on a block must earn it.
        if len(samples) > 2 and rate >= _FASTER_SHARE * best[1]:
            break
        best = (int(n_runs), rate)
        if not search:
            return int(batch_size), rate, samples
        if len(samples) > 1:
            size = n_runs // 2
    return best[0], best[1], samples
