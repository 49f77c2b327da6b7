"""Tests of the tile Cholesky task model: its tile-kernel flops, task
list and dependency analysis."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from factor_state import decaying_covariance  # tests/ is on sys.path (rootdir layout)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from benchmarks.paper_model import tasks as tasks_module
from benchmarks.paper_model.tasks import (
    Task,
    build_task_graph,
    cholesky_tile_counts,
    gemm_flops,
    generate_cholesky_tasks,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.linalg import MixedPrecisionCholesky, tile_codes
from repro.linalg.flops import cholesky_flops
from repro.linalg.policies import VARIANTS
from repro.linalg.precision import _PRECISIONS

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


class TestKernelFlops:
    def test_asymptotic_ratios(self):
        nb = 256
        assert gemm_flops(nb) == pytest.approx(2 * nb ** 3)
        assert trsm_flops(nb) == pytest.approx(nb ** 3)
        assert syrk_flops(nb) == pytest.approx(nb ** 3, rel=1e-2)
        assert potrf_flops(nb) == pytest.approx(nb ** 3 / 3, rel=1e-2)

    def test_tile_counts(self):
        assert cholesky_tile_counts(4) == {"POTRF": 4, "TRSM": 6, "SYRK": 6, "GEMM": 4}

    def test_tile_counts_match_total_flops(self):
        """Summing per-kernel flops over the tile counts approximates n^3/3."""
        nb, nt = 64, 8
        counts = cholesky_tile_counts(nt)
        total = (
            counts["POTRF"] * potrf_flops(nb)
            + counts["TRSM"] * trsm_flops(nb)
            + counts["SYRK"] * syrk_flops(nb)
            + counts["GEMM"] * gemm_flops(nb)
        )
        assert total == pytest.approx(cholesky_flops(nb * nt), rel=0.05)


def _output_precisions(tasks: list) -> dict:
    """``{(i, j): precision}`` of each tile a POTRF or TRSM finishes."""
    return {t.writes[0]: t.precision for t in tasks if t.kind in ("POTRF", "TRSM")}


def _code_precisions(codes, n_tiles: int) -> dict:
    """``{(i, j): precision}`` of row-major lower-tile codes."""
    return {
        (int(i), int(j)): _PRECISIONS[c].value
        for i, j, c in zip(*np.tril_indices(n_tiles), codes)
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tasks_compute_at_the_variants_tile_precisions(self, variant):
        """Each tile's finishing task computes at the precision
        ``tile_codes`` assigns the tile, a name in any case."""
        tasks = generate_cholesky_tasks(300, 24, variant.lower())
        assert _output_precisions(tasks) == _code_precisions(tile_codes(variant, 13), 13)

    def test_unknown_variant_lists_the_four(self):
        with pytest.raises(ValueError, match="'DP/SP/HP'"):
            generate_cholesky_tasks(64, 16, "DP/QP")

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
        assert len(result.tile_precision) == 7 * 8 // 2
        emulator = repro.fit(
            small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,),
            precision_variant="DP/SP",
        )
        assert emulator.spectral_model.cholesky.n == 64


#: ``(variant, conversion) -> (flops per compute precision, conversions)``
#: of the order-300 task list in 24-wide tiles (455 tasks), as the
#: factorisation's closed-form accounting computed them when it kept one.
TOTALS = {
    ("DP", "receiver"): ({"fp64": 9022586.0}, 0),
    ("DP", "sender"): ({"fp64": 9022586.0}, 0),
    ("DP/HP", "receiver"): ({"fp64": 1032314.0, "fp16": 7990272.0}, 156),
    ("DP/HP", "sender"): ({"fp64": 1032314.0, "fp16": 7990272.0}, 90),
    ("DP/SP", "receiver"): ({"fp64": 1032314.0, "fp32": 7990272.0}, 156),
    ("DP/SP", "sender"): ({"fp64": 1032314.0, "fp32": 7990272.0}, 90),
    ("DP/SP/HP", "receiver"): ({"fp64": 1032314.0, "fp32": 1831680.0, "fp16": 6158592.0}, 332),
    ("DP/SP/HP", "sender"): ({"fp64": 1032314.0, "fp32": 1831680.0, "fp16": 6158592.0}, 177),
}


@pytest.mark.parametrize("variant, conversion", sorted(TOTALS))
def test_task_list_totals_are_pinned(variant, conversion):
    tasks = generate_cholesky_tasks(300, 24, variant, conversion=conversion)
    flops = {}
    for task in tasks:
        flops[task.precision] = flops.get(task.precision, 0.0) + task.flops
    pinned_flops, conversions = TOTALS[variant, conversion]
    assert flops == pytest.approx(pinned_flops, rel=1e-12)
    assert sum(t.conversions for t in tasks) == conversions and len(tasks) == 455


def _closed_form_totals(n: int, tile_size: int, grid: dict, receiver: bool):
    """``(flops by precision, conversions, task count)`` of the task list, in
    closed form from the tile precisions ``grid`` (``{(i, j): precision}``).

    Tile ``(i, i)`` takes POTRF(i) and ``i`` SYRKs, tile ``(i, j)`` TRSM(i, j)
    and ``j`` GEMMs.  POTRF(k) broadcasts to column ``k`` below the diagonal;
    TRSM(i, k) to row ``i`` right of ``k`` and to column ``i`` below the
    diagonal.
    """
    nb = tile_size
    nt = -(-n // nb)
    r = [min(nb, n - k * nb) / nb for k in range(nt)]
    flops: dict = {}
    conversions = 0
    for (i, j), precision in grid.items():
        if i == j:
            work = potrf_flops(r[i] * nb) + i * syrk_flops(r[i] * nb)
            consumers = [grid[row, i] for row in range(i + 1, nt)]
        else:
            work = trsm_flops(nb) * r[i] + j * gemm_flops(nb) * r[i] * r[j]
            consumers = [grid[i, col] for col in range(j + 1, i + 1)]
            consumers += [grid[row, i] for row in range(i + 1, nt)]
        flops[precision] = flops.get(precision, 0.0) + work
        needing = [c for c in consumers if c != precision]
        conversions += len(needing) if receiver else len(set(needing))
    return flops, conversions, sum(cholesky_tile_counts(nt).values())


@pytest.mark.parametrize("conversion", ["sender", "receiver"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tile_size", [16, 24, 64])
@pytest.mark.parametrize("n", [64, 100, 300])
def test_closed_form_accounting_is_the_task_lists_totals(n, tile_size, variant, conversion):
    """The task list the performance model prices, summed, equals the closed
    form over the tile precisions of the factor it models: flops per
    precision, conversions and task count, ragged last tile included."""
    result = MixedPrecisionCholesky(tile_size, variant).factorize(decaying_covariance(n))
    nt = -(-n // tile_size)
    grid = _code_precisions(result.tile_precision, nt)
    tasks = generate_cholesky_tasks(n, tile_size, variant, conversion=conversion)
    flops = {}
    for task in tasks:
        flops[task.precision] = flops.get(task.precision, 0.0) + task.flops
    closed_flops, conversions, n_tasks = _closed_form_totals(
        n, tile_size, grid, conversion == "receiver"
    )
    assert flops == pytest.approx(closed_flops, rel=1e-12)
    assert sum(t.conversions for t in tasks) == conversions
    assert len(tasks) == n_tasks


def test_dag_analysis_of_emulator_cholesky(pipeline, innovation_covariance):
    """The task model of the covariance factorisation: its tasks compute at
    the fitted factor's tile precisions, and its DAG analysis is pinned."""
    _, emulator, _ = pipeline
    n = len(innovation_covariance(emulator))  # 100: 4 x 4 tiles of 25
    result = emulator.spectral_model.cholesky
    tasks = generate_cholesky_tasks(n, 25, result.variant)
    assert _output_precisions(tasks) == _code_precisions(result.tile_precision, 4)
    graph = build_task_graph(tasks)
    assert graph.n_tasks == sum(cholesky_tile_counts(4).values()) == 20
    assert graph.total_flops() == pytest.approx(cholesky_flops(n), rel=0.1)
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
