"""E9 — real mixed-precision Cholesky execution (accuracy and throughput).

Unlike the machine-scale figures (which use the calibrated performance
model), this benchmark runs the tile Cholesky *for real* — the blocked
loop of ``MixedPrecisionCholesky.factorize`` — on the fitted covariance,
measuring wall-clock time, per-variant accuracy and storage, and prices the
task list the paper's runtime would execute: task counts and DAG
parallelism — the quantities that do not need a supercomputer to verify.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from benchmarks.paper_model.tasks import build_task_graph, generate_cholesky_tasks
from repro.linalg import MixedPrecisionCholesky
from repro.linalg.flops import cholesky_flops
from repro.linalg.policies import VARIANTS


@pytest.mark.benchmark(group="cholesky-real")
@pytest.mark.parametrize("variant", VARIANTS)
def test_real_mixed_precision_cholesky(benchmark, variant, bench_covariance):
    solver = MixedPrecisionCholesky(tile_size=36, variant=variant, jitter=1e-6)

    result = benchmark(solver.factorize, bench_covariance)

    rows = [[
        variant,
        result.n_tasks,
        f"{result.relative_error(bench_covariance):.2e}",
        f"{result.storage_bytes}",
        f"{result.conversions}",
    ]]
    print_table(
        "E9 — executed tile Cholesky on the fitted covariance (144 x 144)",
        ["variant", "tasks", "||LL^T-U||/||U||", "tiled bytes", "conversions"],
        rows,
    )
    # The DP bound reflects the 1e-6 diagonal jitter applied before each
    # POTRF, not the factorisation accuracy itself.
    tolerance = {"DP": 1e-5, "DP/SP": 1e-4, "DP/SP/HP": 5e-2, "DP/HP": 5e-2}[variant]
    assert result.relative_error(bench_covariance) < tolerance


@pytest.mark.benchmark(group="cholesky-real")
def test_cholesky_dag_structure(benchmark, bench_covariance):
    """DAG statistics: counts, flops, critical path and average parallelism."""
    tasks = generate_cholesky_tasks(len(bench_covariance), 18, "DP/HP")

    graph = benchmark(build_task_graph, tasks)

    span, _ = graph.critical_path()
    rows = [[
        graph.n_tasks,
        graph.n_edges,
        f"{graph.total_flops():.3e}",
        f"{cholesky_flops(bench_covariance.shape[0]):.3e}",
        f"{graph.average_parallelism():.1f}",
        graph.max_parallelism(),
    ]]
    print_table(
        "E9 — Cholesky DAG structure (tile size 18, 8x8 tiles)",
        ["tasks", "edges", "task flops", "n^3/3", "avg parallelism", "max width"],
        rows,
    )
    assert graph.total_flops() == pytest.approx(cholesky_flops(bench_covariance.shape[0]), rel=0.15)
    assert graph.average_parallelism() > 2.0


@pytest.mark.benchmark(group="cholesky-real")
def test_dense_reference_throughput(benchmark, bench_covariance):
    """Baseline: LAPACK dense Cholesky of the same covariance (for context)."""
    from repro.linalg import dense_cholesky

    lower = benchmark(dense_cholesky, bench_covariance)
    n = bench_covariance.shape[0]
    assert np.allclose(lower @ lower.T, bench_covariance, atol=1e-8 * n)
