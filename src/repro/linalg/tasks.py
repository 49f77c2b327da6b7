"""The task model of the tile Cholesky: the DAG PaRSEC would run.

In the paper (Section III-A.3) the mixed-precision tile Cholesky runs as a
DAG of POTRF / TRSM / SYRK / GEMM tile tasks.  Here one blocked loop
computes the factor (:mod:`repro.linalg.cholesky`), and this module keeps
the task view of the same factorisation for the performance figures:
:func:`generate_cholesky_tasks` lists the tasks in program order with
their flop counts, compute precisions and precision-conversion counts, and
:func:`build_task_graph` derives their dependencies.

Because the list is in program order, every dependency points backward: a
:class:`TaskGraph` is the list plus, per task, the indices of its direct
predecessors, and the critical path and the width profile are one forward
pass over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.linalg.cholesky import _tile_rows
from repro.linalg.flops import gemm_flops, potrf_flops, syrk_flops, trsm_flops
from repro.linalg.policies import ConversionSide, PrecisionPolicy, variant_policy
from repro.linalg.precision import Precision

__all__ = ["Task", "TaskGraph", "build_task_graph", "generate_cholesky_tasks"]

# A tile reference is any hashable key; the Cholesky tasks use (i, j).
TileRef = tuple


@dataclass
class Task:
    """One tile task.

    ``reads`` / ``writes`` name the tiles it touches (an update's output
    tile appears only in ``writes``), ``flops`` is the kernel's operation
    count, ``precision`` the compute precision (``"fp64"`` / ``"fp32"`` /
    ``"fp16"``) and ``conversions`` the precision conversions its output's
    broadcast implies (Section V-A).
    """

    name: str
    kind: str
    reads: tuple[TileRef, ...]
    writes: tuple[TileRef, ...]
    flops: float
    precision: str = "fp64"
    conversions: int = 0


@dataclass
class TaskGraph:
    """A task list in program order and each task's direct predecessors.

    ``predecessors[i]`` holds indices into ``tasks``, ascending and all
    below ``i``, so the list order is a topological order.
    """

    tasks: list[Task]
    predecessors: list[list[int]]

    @property
    def n_tasks(self) -> int:
        """Number of tasks in the graph."""
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return sum(map(len, self.predecessors))

    def total_flops(self) -> float:
        """Sum of task flop counts."""
        return float(sum(t.flops for t in self.tasks))

    def critical_path(
        self, cost: Callable[[Task], float] | None = None
    ) -> tuple[float, list[str]]:
        """Critical-path length and the task names along it.

        ``cost`` maps a task to its execution cost and defaults to the flop
        count.  On ties the first predecessor and the first end task in list
        order win, so the path does not depend on the process.
        """
        if cost is None:
            cost = lambda t: t.flops  # noqa: E731
        dist: list[float] = []
        parent: list[int | None] = []
        for task, preds in zip(self.tasks, self.predecessors):
            best, best_p = 0.0, None
            for p in preds:
                if dist[p] > best:
                    best, best_p = dist[p], p
            dist.append(best + cost(task))
            parent.append(best_p)
        if not dist:
            return 0.0, []
        end = dist.index(max(dist))
        path = [end]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return dist[end], [self.tasks[i].name for i in reversed(path)]

    def parallelism_profile(self) -> list[int]:
        """Number of tasks at each dependency level (the DAG's width profile)."""
        level: list[int] = []
        for preds in self.predecessors:
            level.append(1 + max((level[p] for p in preds), default=-1))
        widths = [0] * (max(level, default=-1) + 1)
        for lv in level:
            widths[lv] += 1
        return widths

    def max_parallelism(self) -> int:
        """Maximum width of the DAG."""
        return max(self.parallelism_profile(), default=0)

    def average_parallelism(self, cost: Callable[[Task], float] | None = None) -> float:
        """Total work divided by the critical path (ideal speedup bound)."""
        if cost is None:
            cost = lambda t: t.flops  # noqa: E731
        span, _ = self.critical_path(cost)
        total = sum(cost(t) for t in self.tasks)
        return total / span if span > 0 else 0.0


def build_task_graph(tasks: Iterable[Task]) -> TaskGraph:
    """Derive the dependencies of a task list from its data accesses, in order:

    * read-after-write: a task reading a tile depends on its last writer;
    * write-after-write: a task writing a tile depends on its last writer;
    * write-after-read: a task writing a tile depends on every reader since
      the last write (in-place updates do not overtake reads).
    """
    tasks = list(tasks)
    names: set[str] = set()
    for t in tasks:
        if t.name in names:
            raise ValueError(f"duplicate task name {t.name!r}")
        names.add(t.name)

    last_writer: dict[TileRef, int] = {}
    readers: dict[TileRef, list[int]] = {}
    predecessors = []
    for index, t in enumerate(tasks):
        deps = {last_writer[ref] for ref in (*t.reads, *t.writes) if ref in last_writer}
        for ref in t.writes:
            deps.update(readers.get(ref, ()))
        predecessors.append(sorted(deps))
        for ref in t.reads:
            readers.setdefault(ref, []).append(index)
        for ref in t.writes:
            last_writer[ref] = index
            readers[ref] = []
    return TaskGraph(tasks=tasks, predecessors=predecessors)


def generate_cholesky_tasks(
    n: int,
    tile_size: int,
    variant: str | PrecisionPolicy,
    conversion: ConversionSide | str = ConversionSide.SENDER,
) -> list[Task]:
    """Generate the right-looking tile Cholesky task list of an order-``n`` matrix.

    Tile ``(i, j)`` is stored at the precision that ``variant`` (a policy or
    a registered name) assigns it; a task computes at its output tile's
    precision and counts the conversions its broadcast implies under
    ``conversion``.  The tasks carry no kernels:
    :meth:`~repro.linalg.cholesky.MixedPrecisionCholesky.factorize` computes
    the factor with a blocked loop, and its accounting equals this list's
    totals.
    """
    if tile_size < 1:
        raise ValueError("tile_size must be positive")
    side = ConversionSide(conversion)
    policy = variant if isinstance(variant, PrecisionPolicy) else variant_policy(variant)
    nb = tile_size
    rows = _tile_rows(n, nb).tolist()
    nt = len(rows)
    precision = policy.precision_map(nt)
    tasks: list[Task] = []

    for k in range(nt):
        # POTRF on the diagonal tile, broadcast down its column.
        consumers = [precision[i, k] for i in range(k + 1, nt)]
        tasks.append(
            Task(
                name=f"POTRF({k})",
                kind="POTRF",
                reads=(),
                writes=((k, k),),
                flops=potrf_flops(rows[k]),
                precision=precision[k, k].value,
                conversions=_conversion_count(precision[k, k], consumers, side),
            )
        )
        for i in range(k + 1, nt):
            # TRSM: panel update of tile (i, k); consumed by GEMM/SYRK tasks.
            consumers = [precision[i, j] for j in range(k + 1, i)]
            consumers += [precision[r, i] for r in range(i + 1, nt)]
            consumers += [precision[i, i]]
            tasks.append(
                Task(
                    name=f"TRSM({i},{k})",
                    kind="TRSM",
                    reads=((k, k),),
                    writes=((i, k),),
                    flops=trsm_flops(nb) * (rows[i] / nb),
                    precision=precision[i, k].value,
                    conversions=_conversion_count(precision[i, k], consumers, side),
                )
            )
        for i in range(k + 1, nt):
            tasks.append(
                Task(
                    name=f"SYRK({i},{k})",
                    kind="SYRK",
                    reads=((i, k),),
                    writes=((i, i),),
                    flops=syrk_flops(rows[i]),
                    precision=precision[i, i].value,
                )
            )
            for j in range(k + 1, i):
                tasks.append(
                    Task(
                        name=f"GEMM({i},{j},{k})",
                        kind="GEMM",
                        reads=((i, k), (j, k)),
                        writes=((i, j),),
                        flops=gemm_flops(nb) * (rows[i] / nb) * (rows[j] / nb),
                        precision=precision[i, j].value,
                    )
                )
    return tasks


def _conversion_count(
    source: Precision, consumers: list[Precision], side: ConversionSide
) -> int:
    """Number of precision conversions implied by a broadcast."""
    needing = [c for c in consumers if c != source]
    if side is ConversionSide.SENDER:
        # one conversion per distinct target precision at the producer
        return len(set(needing))
    return len(needing)
