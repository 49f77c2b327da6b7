"""Task descriptions for the tile-based runtime.

A :class:`Task` is the unit of work handled by the runtime, mirroring the
task abstraction of PaRSEC: it names the tiles it reads and writes, carries
the arithmetic cost and compute precision used by the cost models, and
(optionally) a kernel callable that the local executor applies to a tile
store to perform the real computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = ["Task"]

# A tile reference is an arbitrary hashable key; the Cholesky task list
# uses ("A", i, j) style tuples so several operands can coexist in one store.
TileRef = tuple


@dataclass
class Task:
    """A single runtime task.

    Parameters
    ----------
    name:
        Unique human-readable identifier, e.g. ``"POTRF(3,3)"``.
    kind:
        Kernel family (``POTRF``, ``TRSM``, ``SYRK``, ``GEMM``, or any other
        label for non-factorisation workloads).
    reads:
        Tile references read by the task (excluding the written tile unless
        it is also read, as in an update).
    writes:
        Tile references written by the task.
    flops:
        Floating-point operation count of the kernel.
    precision:
        Name of the compute precision (``"fp64"``, ``"fp32"``, ``"fp16"``)
        used for performance modelling.
    func:
        Optional callable ``func(store)`` executing the kernel against a
        mapping from tile references to ``numpy`` arrays.
    comm_bytes:
        Bytes received from remote tiles when the owner-computes mapping
        places the inputs on other processes (filled by the task generator;
        priced by the analytic communication terms of the cost models).
    priority:
        Larger values are scheduled earlier by priority-aware executors
        (the Cholesky generator gives panel tasks higher priority, which is
        the standard lookahead heuristic).
    metadata:
        Free-form annotations (e.g. conversion counts for the sender- versus
        receiver-side precision conversion study).
    """

    name: str
    kind: str
    reads: tuple[TileRef, ...]
    writes: tuple[TileRef, ...]
    flops: float
    precision: str = "fp64"
    func: Callable[[Mapping[TileRef, np.ndarray]], None] | None = None
    comm_bytes: float = 0.0
    priority: int = 0
    metadata: dict = field(default_factory=dict)

    def execute(self, store: Mapping[TileRef, np.ndarray]) -> None:
        """Run the kernel against ``store`` (no-op if no kernel attached)."""
        if self.func is not None:
            self.func(store)

    @property
    def accesses(self) -> tuple[TileRef, ...]:
        """All tiles touched by the task (reads then writes)."""
        return tuple(self.reads) + tuple(self.writes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Task({self.name}, kind={self.kind}, flops={self.flops:.3g}, "
            f"precision={self.precision})"
        )
