"""Autotuning by measurement: time the campaign's own first blocks.

The paper schedules its solver against a machine model because a wrong
guess at exascale costs node-hours.  Locally the only knob that moves
campaign wall time is ``batch_size`` (one worker beat every thread and
process pool on the sizes this package runs, so the pools are gone;
``docs/tuning.md`` has the sweep), and every candidate value is
bit-inert — so instead of modelling the host, ``run_campaign(..., tune="auto")`` *pilots*: it runs
the plan's first realization blocks (a block is the same realizations of
every scenario) at the largest candidate size (twice: the first block of
a campaign is cold), then at half of it, and so on while halving is
measurably faster per run.  The blocks are real
work whose records and store commits are kept, so the pilot costs
nothing but the runs spent at a non-winning size.

This module holds the search (:func:`_pilot_batch_size`; the campaign
runner supplies the callback that executes and times a block) and
:func:`calibrate_machine`, which reads the host's identity, core count
and physical memory.  Nothing here spawns a worker, writes a file or
imports another layer.
"""

from __future__ import annotations

import os
import socket
from dataclasses import dataclass

__all__ = ["MachineProfile", "calibrate_machine"]

#: Largest block the pilot starts from: past this the stacked synthesis
#: stops gaining from batching while peak memory keeps growing linearly.
_MAX_PILOT_BATCH = 32

#: A halved block counts as *measurably* faster only below this share of
#: the best seconds-per-run so far; one block per candidate is one
#: sample, so a win inside timer noise must not shrink the batch.
_FASTER_SHARE = 0.9


@dataclass(frozen=True)
class MachineProfile:
    """The host facts: identity, core count, physical memory.

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


def _pilot_batch_size(
    n_realizations: int, time_block, batch_size: "int | None" = None
) -> "tuple[int, float, list[dict]]":
    """Pick a block size by timing real blocks, largest candidate first.

    ``time_block(size)`` must execute the campaign's next realization
    block of at most ``size`` realizations and return ``(n, seconds)`` —
    the realizations it held and its wall time per ``n`` runs (the
    block's time over its scenario count) — or ``None`` once no runs are
    left.  The search times the largest candidate,
    ``min(n_realizations, 32)``, twice — a freshly loaded emulator's
    first block meets cold caches and first-touch pages, so it is
    sampled but only its warm repeat is compared — then halves while
    the halved block beats the best seconds-per-run so far by more than
    the :data:`_FASTER_SHARE` margin, and stops at the first candidate
    that does not (or at one realization, or when the plan is
    exhausted).  A ``batch_size`` the caller
    pinned is returned as is, after timing one block of it: the
    prediction still wants a measured seconds-per-run.

    Returns ``(batch_size, seconds_per_run, samples)``: the winner, the
    best measured rate, and one ``{"batch_size", "seconds_per_run"}``
    sample per block timed, in order.  A sample is keyed by the
    realizations the block actually held, which is smaller than the
    candidate when the plan's last realizations were fewer.
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
