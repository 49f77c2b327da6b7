"""Local numerical execution of task DAGs.

The :class:`LocalExecutor` walks a task graph in dependency order and
applies each task's kernel, if it carries one (the Cholesky task model
does not), to a :class:`TileStore`.  On the single-node Python substrate the
execution is sequential, but the executor still verifies that the order it
follows respects the DAG (exactly what a dataflow runtime guarantees) and
records an execution trace that the tests cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.runtime.dag import TaskGraph, build_task_graph
from repro.runtime.task import Task, TileRef

__all__ = ["TileStore", "ExecutionTrace", "LocalExecutor"]


class TileStore(dict):
    """Mapping from tile references to ``numpy`` arrays.

    A thin ``dict`` subclass that adds byte accounting; tasks mutate the
    arrays in place or rebind keys to new arrays (e.g. precision
    conversions).
    """

    def total_bytes(self) -> int:
        """Total storage currently held by the store."""
        return int(sum(np.asarray(v).nbytes for v in self.values()))

    def dtype_histogram(self) -> dict[str, int]:
        """Number of tiles per dtype name (mixed-precision bookkeeping)."""
        out: dict[str, int] = {}
        for v in self.values():
            key = str(np.asarray(v).dtype)
            out[key] = out.get(key, 0) + 1
        return out


@dataclass
class ExecutionTrace:
    """Record of a local execution."""

    order: list[str] = field(default_factory=list)
    flops: float = 0.0
    tasks_by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, task: Task) -> None:
        """Append a completed task to the trace."""
        self.order.append(task.name)
        self.flops += task.flops
        self.tasks_by_kind[task.kind] = self.tasks_by_kind.get(task.kind, 0) + 1


class LocalExecutor:
    """Execute task kernels locally, respecting DAG order.

    Parameters
    ----------
    validate:
        When true (default), re-derive the dependency graph and assert the
        execution order is a valid linear extension; catches task lists
        whose declared accesses do not cover their true data flow.
    """

    def __init__(self, validate: bool = True) -> None:
        self.validate = validate

    def run(
        self,
        tasks: Iterable[Task] | TaskGraph,
        store: TileStore,
    ) -> ExecutionTrace:
        """Execute ``tasks`` against ``store`` and return the trace."""
        graph = tasks if isinstance(tasks, TaskGraph) else build_task_graph(list(tasks))
        order = graph.topological_order()
        if self.validate:
            self._check_order(graph, order)
        trace = ExecutionTrace()
        for task in order:
            task.execute(store)
            trace.record(task)
        return trace

    @staticmethod
    def _check_order(graph: TaskGraph, order: list[Task]) -> None:
        position = {t.name: i for i, t in enumerate(order)}
        for u, v in graph.graph.edges:
            if position[u] >= position[v]:
                raise RuntimeError(f"execution order violates dependency {u} -> {v}")
