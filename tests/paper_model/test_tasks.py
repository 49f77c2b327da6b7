"""Tests of the tile Cholesky task model and its dependency analysis.

The task list is also the oracle of ``repro.linalg.cholesky._accounting``:
a factorisation's flop, conversion and task totals are its closed form,
pinned equal here.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from factor_state import decaying_covariance  # tests/ is on sys.path (rootdir layout)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from benchmarks.paper_model import tasks as tasks_module
from benchmarks.paper_model.tasks import Task, build_task_graph, generate_cholesky_tasks
from repro.linalg import VARIANTS, MixedPrecisionCholesky, variant_policy
from repro.linalg.flops import cholesky_flops, cholesky_tile_counts

REPO_ROOT = Path(__file__).resolve().parents[2]


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
        from benchmarks.paper_model.tasks import build_task_graph, generate_cholesky_tasks

        graph = build_task_graph(generate_cholesky_tasks(144, 18, "DP/HP"))
        print(graph.critical_path())
    """)
    paths = []
    for seed in ("0", "1"):
        env = {
            **os.environ, "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
        }
        paths.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout)
    assert paths[0] == paths[1]
    assert paths[0].startswith("(121182.0, ['POTRF(0)'")


class TestTaskGeneration:
    def test_task_counts_match_formula(self):
        tasks = generate_cholesky_tasks(64, 16, "DP")
        counts = cholesky_tile_counts(4)
        by_kind = {}
        for t in tasks:
            by_kind[t.kind] = by_kind.get(t.kind, 0) + 1
        assert by_kind == counts

    def test_flops_sum_close_to_dense_count(self):
        tasks = generate_cholesky_tasks(64, 8, "DP")
        total = sum(t.flops for t in tasks)
        assert total == pytest.approx(cholesky_flops(64), rel=0.1)

    def test_dag_is_acyclic_with_expected_dependencies(self):
        graph = build_task_graph(generate_cholesky_tasks(64, 16, "DP"))
        # First POTRF has no predecessors; last POTRF depends on earlier work.
        assert graph.predecessors[0] == []
        last_potrf = [t.name for t in graph.tasks].index("POTRF(3)")
        assert [graph.tasks[i].name for i in graph.predecessors[last_potrf]] == ["SYRK(3,2)"]

    def test_precision_assignment_follows_policy(self):
        tasks = generate_cholesky_tasks(64, 8, "DP/HP")
        potrf = [t for t in tasks if t.kind == "POTRF"]
        gemm_far = [t for t in tasks if t.kind == "GEMM" and t.name == "GEMM(7,1,0)"]
        assert all(t.precision == "fp64" for t in potrf)
        assert gemm_far and gemm_far[0].precision == "fp16"

    def test_sender_conversion_counts_fewer_than_receiver(self):
        sender, receiver = (
            sum(t.conversions for t in generate_cholesky_tasks(64, 8, "DP/HP", conversion=side))
            for side in ("sender", "receiver")
        )
        assert sender < receiver

    def test_a_policy_object_is_taken_as_is(self):
        policy = variant_policy("DP/SP")
        solver = MixedPrecisionCholesky(tile_size=16, variant=policy)
        assert solver.policy is policy
        by_name = generate_cholesky_tasks(64, 16, "DP/SP")
        assert [t.precision for t in generate_cholesky_tasks(64, 16, policy)] == [
            t.precision for t in by_name
        ]

    def test_rejects_bad_tile_size(self):
        with pytest.raises(ValueError, match="tile_size"):
            generate_cholesky_tasks(64, 0, "DP")

    def test_no_task_list_on_the_factorisation_path(self, small_ensemble, monkeypatch):
        """``factorize`` and ``repro.fit`` run with the task model disabled."""

        def disabled(*args, **kwargs):
            raise AssertionError("the factorisation built the task list")

        monkeypatch.setattr(tasks_module, "generate_cholesky_tasks", disabled)
        monkeypatch.setattr(Task, "__init__", disabled)
        spd = decaying_covariance(100)
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/SP/HP").factorize(spd)
        assert result.n_tasks == sum(cholesky_tile_counts(7).values())
        emulator = repro.fit(
            small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,),
            precision_variant="DP/SP",
        )
        assert emulator.spectral_model.cholesky.n == 64


@pytest.mark.parametrize("conversion", ["sender", "receiver"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tile_size", [16, 24, 64])
@pytest.mark.parametrize("n", [64, 100, 300])
def test_closed_form_accounting_is_the_task_lists_totals(n, tile_size, variant, conversion):
    """``flops_by_precision`` / ``conversions`` / ``n_tasks`` of a factorisation
    equal the sums over the task list the performance model prices, and
    ``storage_bytes`` the sum over its tiles at stored width."""
    spd = decaying_covariance(n)
    result = MixedPrecisionCholesky(tile_size, variant, conversion).factorize(spd)
    tasks = generate_cholesky_tasks(n, tile_size, variant, conversion=conversion)
    flops = {}
    for task in tasks:
        flops[task.precision] = flops.get(task.precision, 0.0) + task.flops
    assert result.flops_by_precision == pytest.approx(flops, rel=1e-12)
    assert result.total_flops == pytest.approx(sum(flops.values()), rel=1e-12)
    assert result.conversions == sum(t.conversions for t in tasks)
    assert result.n_tasks == len(tasks)
    rows = [min(tile_size, n - i * tile_size) for i in range(-(-n // tile_size))]
    assert result.storage_bytes == sum(
        rows[i] * rows[j] * precision.bytes_per_element
        for (i, j), precision in variant_policy(variant).precision_map(len(rows)).items()
    )


def test_dag_analysis_of_emulator_cholesky(pipeline, innovation_covariance):
    """The task model of the covariance factorisation: its DAG analysis
    agrees with the factorisation's own accounting."""
    _, emulator, _ = pipeline
    n = len(innovation_covariance(emulator))  # 100: 4 x 4 tiles of 25
    result = emulator.spectral_model.cholesky
    graph = build_task_graph(generate_cholesky_tasks(n, 25, "DP/SP"))
    assert graph.n_tasks == result.n_tasks == 20
    assert graph.total_flops() == pytest.approx(result.total_flops, rel=1e-12)
    length, path = graph.critical_path(cost=lambda t: 1.0)
    # POTRF -> TRSM -> SYRK per panel, then the last POTRF.
    assert (length, path[:3], path[-1]) == (
        10.0, ["POTRF(0)", "TRSM(1,0)", "SYRK(1,0)"], "POTRF(3)"
    )
    assert graph.parallelism_profile() == [1, 3, 6, 1, 2, 3, 1, 1, 1, 1]
    assert 1.0 < graph.average_parallelism() < graph.max_parallelism() == 6


def _brute_force_edges(tasks: list) -> set:
    """``(i, j)``, ``i < j``, wherever task ``j`` must follow task ``i``: it
    reads or writes what ``i`` last wrote before it (RAW / WAW), or writes
    what ``i`` read since that tile's last write (WAR)."""
    edges = set()
    for j, later in enumerate(tasks):
        for ref in (*later.reads, *later.writes):
            writers = [i for i in range(j) if ref in tasks[i].writes]
            if writers:
                edges.add((writers[-1], j))
            if ref in later.writes:
                since = writers[-1] + 1 if writers else 0
                edges.update((i, j) for i in range(since, j) if ref in tasks[i].reads)
    return edges


class TestTaskGraphProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=5), max_size=3),
                st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=2),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_task_graph_points_backward_and_is_complete(self, accesses):
        tasks = [
            Task(
                name=f"t{i}",
                kind="W",
                reads=tuple(("x", k) for k in reads),
                writes=tuple(("x", k) for k in writes),
                flops=1.0,
            )
            for i, (reads, writes) in enumerate(accesses)
        ]
        graph = build_task_graph(tasks)
        assert graph.n_tasks == len(tasks)
        for j, preds in enumerate(graph.predecessors):
            assert preds == sorted(set(preds)) and all(i < j for i in preds)
        edges = {(i, j) for j, preds in enumerate(graph.predecessors) for i in preds}
        assert edges == _brute_force_edges(tasks)
        assert graph.n_edges == len(edges)
