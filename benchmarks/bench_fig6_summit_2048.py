"""E5 — Figure 6: precision variants on 2,048 Summit nodes.

The paper reports, for covariance sizes 2.1M-8.39M on 12,288 V100 GPUs:
DP reaching 61.7% of the DP peak, and speedups over DP of ~2.0x (DP/SP),
~3.2x (DP/SP/HP) and ~5.2x (DP/HP), with DP/HP peaking at ~305 PFlop/s.
This benchmark regenerates the four curves with the performance model.
"""

import pytest

from benchmarks.conftest import print_table
from benchmarks.paper_model.machines import SUMMIT
from benchmarks.paper_model.perf_model import CholeskyPerformanceModel
from repro.linalg.policies import VARIANTS

NODES = 2_048
SIZES = [2_100_000, 3_150_000, 4_190_000, 5_240_000, 6_290_000, 7_340_000, 8_390_000]
PAPER = {"DP": 1.0, "DP/SP": 2.0, "DP/SP/HP": 3.2, "DP/HP": 5.2}


@pytest.mark.benchmark(group="fig6")
def test_fig6_precision_variants_at_scale(benchmark):
    model = CholeskyPerformanceModel(SUMMIT)

    def sweep():
        return {
            variant: [model.estimate(n, NODES, variant) for n in SIZES]
            for variant in VARIANTS
        }

    results = benchmark(sweep)
    allocation = SUMMIT.subset(NODES)
    dp_peak = allocation.theoretical_peak_pflops("fp64")

    rows = []
    at_largest = {}
    for variant in VARIANTS:
        series = results[variant]
        at_largest[variant] = series[-1].pflops
        rows.append(
            [variant]
            + [f"{e.pflops:.1f}" for e in series]
        )
    print_table(
        f"Fig. 6 — Cholesky PFlop/s on {NODES} Summit nodes (sizes {SIZES[0]/1e6:.1f}M..{SIZES[-1]/1e6:.2f}M)",
        ["variant"] + [f"{n/1e6:.2f}M" for n in SIZES],
        rows,
    )

    summary = []
    for variant in VARIANTS:
        speedup = at_largest[variant] / at_largest["DP"]
        summary.append([variant, f"{at_largest[variant]:.1f}",
                        f"{speedup:.2f}", f"{PAPER[variant]:.1f}"])
    summary.append(["DP % of peak", f"{100 * at_largest['DP'] / dp_peak:.1f}%", "", "61.7%"])
    print_table(
        "Fig. 6 — speedups over DP at the largest size (paper values for comparison)",
        ["variant", "PFlop/s", "speedup vs DP", "paper"],
        summary,
    )

    # Shape assertions.
    assert at_largest["DP"] < at_largest["DP/SP"] < at_largest["DP/SP/HP"] < at_largest["DP/HP"]
    assert 0.40 < at_largest["DP"] / dp_peak < 0.75
    assert 1.5 < at_largest["DP/SP"] / at_largest["DP"] < 2.6
    assert 3.5 < at_largest["DP/HP"] / at_largest["DP"] < 7.0
    assert 150.0 < at_largest["DP/HP"] < 450.0  # paper: 304.84 PFlop/s
    # Performance improves with problem size for every variant.
    for variant in VARIANTS:
        values = [e.pflops for e in results[variant]]
        assert values == sorted(values)
