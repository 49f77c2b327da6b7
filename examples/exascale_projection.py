#!/usr/bin/env python
"""Exascale performance projection across Frontier, Alps, Leonardo and Summit.

Reproduces the shape of the paper's machine-scale results with the
calibrated analytic performance model: Table I (1,024 nodes of each system),
the largest runs of Fig. 8, and the Summit weak/strong scaling of Fig. 7.

Run with:  python examples/exascale_projection.py
"""

from __future__ import annotations

from repro.linalg.policies import VARIANTS
from repro.systems import SYSTEMS, CholeskyPerformanceModel, scaling_efficiencies
from repro.systems.catalog import PAPER_NODE_COUNTS


def table1() -> None:
    print("Table I — DP/HP Cholesky on 1,024 nodes of each system")
    print(f"{'system':10s} {'GPU':28s} {'#GPUs':>7s} {'matrix':>8s} "
          f"{'PFlop/s':>9s} {'TF/s/GPU':>9s}")
    sizes = {"frontier": 8_390_000, "alps": 10_490_000, "leonardo": 8_390_000, "summit": 6_290_000}
    for name, machine in SYSTEMS.items():
        estimate = CholeskyPerformanceModel(machine).estimate(sizes[name], 1024, "DP/HP")
        print(f"{machine.name:10s} {machine.node.gpu.name:28s} {estimate.workers:7d} "
              f"{sizes[name]/1e6:7.2f}M {estimate.pflops:9.1f} {estimate.tflops_per_worker:9.1f}")


def largest_runs() -> None:
    print("\nFig. 8 — largest runs (DP/HP)")
    runs = {
        "frontier": (PAPER_NODE_COUNTS["largest_run"]["frontier"], 27_240_000),
        "alps": (PAPER_NODE_COUNTS["largest_run"]["alps"], 15_730_000),
        "summit": (PAPER_NODE_COUNTS["largest_run"]["summit"], 12_580_000),
        "leonardo": (PAPER_NODE_COUNTS["largest_run"]["leonardo"], 8_390_000),
    }
    for name, (nodes, size) in runs.items():
        machine = SYSTEMS[name]
        estimate = CholeskyPerformanceModel(machine).estimate(size, nodes, "DP/HP")
        print(f"  {machine.name:10s} {nodes:6d} nodes, {size/1e6:6.2f}M matrix: "
              f"{estimate.eflops:6.3f} EFlop/s")


def summit_scaling() -> None:
    print("\nFig. 7 — Summit scaling (per-GPU efficiency vs the smallest allocation)")
    model = CholeskyPerformanceModel(SYSTEMS["summit"])
    weak_gpus = [384, 1536, 3072, 6144, 12288]
    strong_gpus = [3072, 6144, 12288]
    fixed = model.memory_bound_matrix_size(512)
    print(f"  {'variant':10s} {'weak: ' + str(weak_gpus):48s} strong ({fixed/1e6:.1f}M): {strong_gpus}")
    for variant in VARIANTS:
        weak = scaling_efficiencies(model.weak_scaling(weak_gpus, variant))
        strong = scaling_efficiencies(model.strong_scaling(fixed, strong_gpus, variant))
        weak_str = " ".join(f"{100*e:4.0f}%" for e in weak)
        strong_str = " ".join(f"{100*e:4.0f}%" for e in strong)
        print(f"  {variant:10s} {weak_str:48s} {strong_str}")


def main() -> None:
    table1()
    largest_runs()
    summit_scaling()
    print("\nNote: these are calibrated performance-model projections; see")
    print("EXPERIMENTS.md for the comparison against the paper's measured values.")


if __name__ == "__main__":
    main()
