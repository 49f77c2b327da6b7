"""Tests of the tile Cholesky task model and its dependency analysis."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.linalg import generate_cholesky_tasks
from repro.linalg.tasks import Task, build_task_graph

SRC = Path(__file__).resolve().parents[2] / "src"


def _task(name, writes, reads=()):
    return Task(name=name, kind="WRITE", reads=tuple(reads), writes=(writes,), flops=4.0)


def _edges(graph):
    """``(predecessor name, task name)`` for every dependency."""
    return {
        (graph.tasks[p].name, task.name)
        for task, preds in zip(graph.tasks, graph.predecessors)
        for p in preds
    }


class TestTaskGraph:
    def test_raw_dependencies(self):
        graph = build_task_graph([
            _task("a", ("x",)),
            _task("b", ("y",), reads=[("x",)]),
            _task("c", ("z",), reads=[("x",), ("y",)]),
        ])
        assert graph.n_tasks == 3
        assert graph.predecessors == [[], [0], [0, 1]]
        assert _edges(graph) == {("a", "b"), ("b", "c"), ("a", "c")}
        assert graph.n_edges == 3

    def test_write_after_read_ordering(self):
        graph = build_task_graph([
            _task("producer", ("x",)),
            _task("reader", ("y",), reads=[("x",)]),
            _task("overwriter", ("x",)),
        ])
        assert ("reader", "overwriter") in _edges(graph)
        # ... and write-after-write on the producer.
        assert ("producer", "overwriter") in _edges(graph)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate task name 'a'"):
            build_task_graph([_task("a", ("x",)), _task("a", ("y",))])

    def test_critical_path_and_parallelism(self):
        graph = build_task_graph([
            _task("a", ("x",)),
            _task("b", ("y",)),
            _task("c", ("z",), reads=[("x",), ("y",)]),
        ])
        length, path = graph.critical_path(cost=lambda t: 1.0)
        assert (length, path) == (2.0, ["a", "c"])  # a tie: the first predecessor
        assert graph.parallelism_profile() == [2, 1]
        assert graph.max_parallelism() == 2
        assert graph.average_parallelism(cost=lambda t: 1.0) == pytest.approx(1.5)
        assert graph.total_flops() == 12.0

    def test_empty_graph(self):
        graph = build_task_graph([])
        assert graph.critical_path() == (0.0, [])
        assert graph.parallelism_profile() == []
        assert graph.max_parallelism() == 0
        assert graph.n_edges == 0


#: ``(n, tile_size, variant) -> (tasks, edges, flop-weighted critical path,
#: unit-cost critical path, sha256 of the sorted edge names)``, as the
#: previous graph-library-backed analysis computed them.
PINNED = {
    (144, 18, "DP/HP"): (
        120, 252, 121182.0, 22.0,
        "7499025f8e8b4bda25bb5e6ec7e2a2ca00f61d50acbbe18df0a0447334b67d50",
    ),
    (300, 24, "DP/SP/HP"): (
        455, 1092, 462178.0, 37.0,
        "931cd4563a357c6322f7695695151e6ac9cc5a84b13f81fac76123403c456743",
    ),
    (1089, 64, "DP"): (
        1140, 2907, 12507843.0, 52.0,
        "60c5657db8261068e4acb287a639d4efebbf7a142c24cfc10948b50971e01f6f",
    ),
    (2304, 64, "DP/SP"): (
        8436, 23310, 27445952.0, 106.0,
        "f9c5a92f0c40474e22e6768ec4bf3bfc45e970684988163edefef0888e194758",
    ),
    (4096, 64, "DP/HP"): (
        45760, 131040, 49466048.0, 190.0,
        "b9ac30f06d566497a8bf3f3b4655a02b3924c383cff27f8333f590c6bd17e6b2",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_cholesky_dag_analysis_is_pinned(case):
    n_tasks, n_edges, flop_span, unit_span, digest = PINNED[case]
    n, tile_size, _ = case
    graph = build_task_graph(generate_cholesky_tasks(*case))
    assert (graph.n_tasks, graph.n_edges) == (n_tasks, n_edges)
    assert hashlib.sha256(repr(sorted(_edges(graph))).encode()).hexdigest() == digest
    assert graph.critical_path()[0] == flop_span
    assert graph.critical_path(cost=lambda t: 1.0)[0] == unit_span
    # Per panel, from the last remaining m = nt - 1 - k tiles below it: one
    # POTRF, then m TRSMs, then m (m + 1) / 2 SYRKs and GEMMs.
    n_tiles = -(-n // tile_size)
    assert graph.parallelism_profile() == [
        width
        for m in range(n_tiles - 1, -1, -1)
        for width in (1, m, m * (m + 1) // 2)
        if width
    ]


def test_critical_path_does_not_depend_on_the_hash_seed():
    """Ties between equally long paths resolve by list order, not by the
    iteration order of a set of names."""
    code = textwrap.dedent("""
        from repro.linalg import generate_cholesky_tasks
        from repro.linalg.tasks import build_task_graph

        graph = build_task_graph(generate_cholesky_tasks(144, 18, "DP/HP"))
        print(graph.critical_path())
    """)
    paths = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        paths.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout)
    assert paths[0] == paths[1]
    assert paths[0].startswith("(121182.0, ['POTRF(0)'")
