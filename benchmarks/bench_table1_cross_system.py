"""E8 — Table I: DP/HP Cholesky on 1,024 nodes of each system.

Paper values: Frontier 223.7 PFlop/s (54.6 TFlop/s/GPU), Alps 384.2 (93.8),
Leonardo 243.1 (57.2), Summit 153.6 (25.0); GH200 outperforms MI250X by
~1.6x per GPU while A100 is roughly on par with MI250X.
"""

import pytest

from benchmarks.conftest import print_table
from benchmarks.paper_model.machines import SYSTEMS
from benchmarks.paper_model.perf_model import CholeskyPerformanceModel

#: system -> (matrix size from Table I, paper PFlop/s, paper TFlop/s per GPU)
TABLE1 = {
    "frontier": (8_390_000, 223.7, 54.6),
    "alps": (10_490_000, 384.2, 93.8),
    "leonardo": (8_390_000, 243.1, 57.2),
    "summit": (6_290_000, 153.6, 25.0),
}
NODES = 1_024


@pytest.mark.benchmark(group="table1")
def test_table1_dp_hp_on_1024_nodes(benchmark):
    def sweep():
        return {
            name: CholeskyPerformanceModel(SYSTEMS[name]).estimate(size, NODES, "DP/HP")
            for name, (size, _, _) in TABLE1.items()
        }

    results = benchmark(sweep)

    rows = []
    for name, estimate in results.items():
        size, paper_pf, paper_per_gpu = TABLE1[name]
        rows.append(
            [
                SYSTEMS[name].name,
                SYSTEMS[name].node.gpu.name,
                estimate.workers,
                f"{size/1e6:.2f}M",
                f"{estimate.pflops:.1f}",
                f"{paper_pf:.1f}",
                f"{estimate.tflops_per_worker:.1f}",
                f"{paper_per_gpu:.1f}",
            ]
        )
    print_table(
        "Table I — DP/HP Cholesky on 1,024 nodes of each system",
        ["system", "GPU", "# GPUs", "matrix", "PFlop/s", "paper", "TF/s/GPU", "paper"],
        rows,
    )

    per_gpu = {name: est.tflops_per_worker for name, est in results.items()}
    # Cross-system ordering and ratios from the paper.
    assert per_gpu["alps"] > per_gpu["leonardo"] > per_gpu["summit"]
    assert per_gpu["alps"] > per_gpu["frontier"] > per_gpu["summit"]
    # GH200 outperforms MI250X by roughly 1.6x per GPU.
    assert 1.3 < per_gpu["alps"] / per_gpu["frontier"] < 2.1
    # A100 is roughly on par with MI250X (within ~25%).
    assert abs(per_gpu["leonardo"] - per_gpu["frontier"]) / per_gpu["frontier"] < 0.25
    # Absolute per-GPU rates land near Table I.
    for name, est in results.items():
        assert est.tflops_per_worker == pytest.approx(TABLE1[name][2], rel=0.3)
