"""Task-graph substrate for the tile solver.

The paper's solver is expressed as a DAG of tile tasks (POTRF / TRSM /
SYRK / GEMM) executed by the PaRSEC runtime over thousands of GPUs.  This
subpackage keeps the pieces of that machinery the performance model prices
(``linalg`` computes the factor with a blocked loop of its own):

* :mod:`repro.runtime.task` — task descriptions (reads/writes, flops,
  compute precision, communication payloads).
* :mod:`repro.runtime.dag` — dependency analysis: build the task graph from
  data accesses, critical path, parallelism profile.
* :mod:`repro.runtime.executor` — a local executor that runs attached task
  kernels sequentially, in dependency order, against a tile store.
* :mod:`repro.runtime.machine` — descriptions of GPUs, nodes and machines
  (per-precision peak rates, memory, interconnect) plus the collective-
  priority and conversion-side policy enums of Sections III-C and V-A.

The discrete-event scheduler/simulator layer that once lived here
(``ListScheduler``, ``DistributedSimulator``, ``CommunicationModel``,
``MemoryTracker``) was reachable only from its own tests and was folded
per ROADMAP item 5: the analytic cost model in
:mod:`repro.systems.perf_model` covers the questions it answered.
"""

from repro.runtime.task import Task
from repro.runtime.dag import build_task_graph
from repro.runtime.executor import LocalExecutor, TileStore
from repro.runtime.machine import (
    CollectivePriority,
    ConversionSide,
    GPUSpec,
    MachineSpec,
    NodeSpec,
)

__all__ = [
    "CollectivePriority",
    "ConversionSide",
    "GPUSpec",
    "LocalExecutor",
    "MachineSpec",
    "NodeSpec",
    "Task",
    "TileStore",
    "build_task_graph",
]
