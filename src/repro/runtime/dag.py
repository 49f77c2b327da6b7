"""Dependency analysis of task lists.

PaRSEC derives the task graph from a symbolic, parametrised representation;
here we derive it from the declared data accesses of an ordered task list
using last-writer / reader tracking, which yields the same DAG for the
dense-linear-algebra workloads this package generates (true dependencies
plus write-after-read and write-after-write ordering).

The resulting :class:`TaskGraph` wraps a :class:`networkx.DiGraph` and
provides the analyses the solver and the benchmarks need:
topological order, critical path under a cost model, width (parallelism)
profile, and per-kind/per-precision flop accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import networkx as nx

from repro.runtime.task import Task, TileRef

__all__ = ["TaskGraph", "build_task_graph"]


@dataclass
class TaskGraph:
    """A task DAG together with the originating task list."""

    tasks: list[Task]
    graph: nx.DiGraph

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        """Number of tasks in the graph."""
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return self.graph.number_of_edges()

    def total_flops(self) -> float:
        """Sum of task flop counts."""
        return float(sum(t.flops for t in self.tasks))

    def flops_by_kind(self) -> dict[str, float]:
        """Flop totals grouped by kernel kind."""
        out: dict[str, float] = defaultdict(float)
        for t in self.tasks:
            out[t.kind] += t.flops
        return dict(out)

    def flops_by_precision(self) -> dict[str, float]:
        """Flop totals grouped by compute precision."""
        out: dict[str, float] = defaultdict(float)
        for t in self.tasks:
            out[t.precision] += t.flops
        return dict(out)

    def counts_by_kind(self) -> dict[str, int]:
        """Task counts grouped by kernel kind."""
        out: dict[str, int] = defaultdict(int)
        for t in self.tasks:
            out[t.kind] += 1
        return dict(out)

    # ------------------------------------------------------------------ #
    # Orderings and structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[Task]:
        """Tasks in a valid execution order."""
        index = {t.name: t for t in self.tasks}
        return [index[name] for name in nx.topological_sort(self.graph)]

    def predecessors(self, task: Task) -> list[Task]:
        """Direct predecessors of ``task``."""
        index = {t.name: t for t in self.tasks}
        return [index[n] for n in self.graph.predecessors(task.name)]

    def successors(self, task: Task) -> list[Task]:
        """Direct successors of ``task``."""
        index = {t.name: t for t in self.tasks}
        return [index[n] for n in self.graph.successors(task.name)]

    def critical_path(
        self, cost: Callable[[Task], float] | None = None
    ) -> tuple[float, list[str]]:
        """Critical-path length and the task names along it.

        Parameters
        ----------
        cost:
            Maps a task to its execution cost; defaults to the flop count,
            so the result is the minimum achievable "weighted span".
        """
        if cost is None:
            cost = lambda t: t.flops  # noqa: E731
        index = {t.name: t for t in self.tasks}
        dist: dict[str, float] = {}
        parent: dict[str, str | None] = {}
        for name in nx.topological_sort(self.graph):
            c = cost(index[name])
            best, best_p = 0.0, None
            for pred in self.graph.predecessors(name):
                if dist[pred] > best:
                    best, best_p = dist[pred], pred
            dist[name] = best + c
            parent[name] = best_p
        if not dist:
            return 0.0, []
        end = max(dist, key=dist.get)
        path = [end]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return dist[end], list(reversed(path))

    def parallelism_profile(self) -> list[int]:
        """Number of tasks at each dependency level (the DAG's width profile)."""
        level: dict[str, int] = {}
        for name in nx.topological_sort(self.graph):
            preds = list(self.graph.predecessors(name))
            level[name] = 0 if not preds else 1 + max(level[p] for p in preds)
        widths: dict[int, int] = defaultdict(int)
        for lv in level.values():
            widths[lv] += 1
        return [widths[i] for i in range(len(widths))]

    def max_parallelism(self) -> int:
        """Maximum width of the DAG."""
        profile = self.parallelism_profile()
        return max(profile) if profile else 0

    def average_parallelism(self, cost: Callable[[Task], float] | None = None) -> float:
        """Total work divided by the critical path (ideal speedup bound)."""
        if cost is None:
            cost = lambda t: t.flops  # noqa: E731
        span, _ = self.critical_path(cost)
        total = sum(cost(t) for t in self.tasks)
        return total / span if span > 0 else 0.0


def build_task_graph(tasks: Sequence[Task] | Iterable[Task]) -> TaskGraph:
    """Build the dependency DAG from an ordered task list.

    Dependencies are derived from data accesses in program order:

    * read-after-write: a task reading a tile depends on its last writer;
    * write-after-write: a task writing a tile depends on its last writer;
    * write-after-read: a task writing a tile depends on all readers since
      the last write (ensures in-place updates do not overtake reads).
    """
    tasks = list(tasks)
    names = set()
    for t in tasks:
        if t.name in names:
            raise ValueError(f"duplicate task name {t.name!r}")
        names.add(t.name)

    graph = nx.DiGraph()
    for t in tasks:
        graph.add_node(t.name)

    last_writer: dict[TileRef, str] = {}
    readers_since_write: dict[TileRef, list[str]] = defaultdict(list)

    for t in tasks:
        deps: set[str] = set()
        for ref in t.reads:
            if ref in last_writer:
                deps.add(last_writer[ref])
        for ref in t.writes:
            if ref in last_writer:
                deps.add(last_writer[ref])
            deps.update(readers_since_write.get(ref, ()))
        deps.discard(t.name)
        for d in deps:
            graph.add_edge(d, t.name)
        for ref in t.reads:
            readers_since_write[ref].append(t.name)
        for ref in t.writes:
            last_writer[ref] = t.name
            readers_since_write[ref] = []
    return TaskGraph(tasks=tasks, graph=graph)
