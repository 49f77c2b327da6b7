"""Task-graph substrate for the tile solver.

The paper's solver is expressed as a DAG of tile tasks (POTRF / TRSM /
SYRK / GEMM) executed by the PaRSEC runtime over thousands of GPUs.  This
subpackage keeps the pieces of that machinery the rest of the package
actually runs on:

* :mod:`repro.runtime.task` — task descriptions (reads/writes, flops,
  compute precision, communication payloads).
* :mod:`repro.runtime.dag` — dependency analysis: build the task graph from
  data accesses, critical path, parallelism profile.
* :mod:`repro.runtime.executor` — a *local numerical executor* that runs the
  task kernels for real (sequentially, respecting dependencies) against a
  tile store; this is what actually factorises matrices in this package.
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
from repro.runtime.dag import TaskGraph, build_task_graph
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
    "TaskGraph",
    "TileStore",
    "build_task_graph",
]
