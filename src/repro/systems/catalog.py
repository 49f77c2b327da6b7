"""Catalogue of the four systems used in the paper's evaluation.

Hardware attributes are taken from the paper's Section IV-D descriptions
and public specification sheets.  The per-precision peak rates follow the
relative speed factors the paper quotes (V100: SP/HP 2x/16x faster than DP;
A100: 16x/32x; H100: 14.7x/29.5x — i.e. the reduced-precision figures are
tensor-core rates), which is what matters for the mixed-precision
performance model.
"""

from __future__ import annotations

from repro.systems.machine import GPUSpec, MachineSpec, NodeSpec

__all__ = [
    "V100",
    "A100",
    "GH200",
    "MI250X",
    "SUMMIT",
    "LEONARDO",
    "ALPS",
    "FRONTIER",
    "SYSTEMS",
    "get_system",
    "PAPER_NODE_COUNTS",
]


# --------------------------------------------------------------------------- #
# GPUs (rates in GFlop/s)
# --------------------------------------------------------------------------- #
V100 = GPUSpec(
    name="NVIDIA V100 (SXM2 16GB)",
    fp64_gflops=7_800.0,
    fp32_gflops=15_700.0,
    fp16_gflops=125_000.0,
    memory_gb=16.0,
)

A100 = GPUSpec(
    name="NVIDIA A100 (SXM4 64GB)",
    fp64_gflops=19_500.0,
    fp32_gflops=156_000.0,
    fp16_gflops=312_000.0,
    memory_gb=64.0,
)

GH200 = GPUSpec(
    name="NVIDIA GH200 (H100 96GB)",
    fp64_gflops=34_000.0,
    fp32_gflops=494_000.0,
    fp16_gflops=989_000.0,
    memory_gb=96.0,
)

MI250X = GPUSpec(
    name="AMD MI250X (MCM, 128GB)",
    fp64_gflops=47_900.0,
    fp32_gflops=95_700.0,
    fp16_gflops=383_000.0,
    memory_gb=128.0,
)


# --------------------------------------------------------------------------- #
# Systems
# --------------------------------------------------------------------------- #
SUMMIT = MachineSpec(
    name="Summit",
    node=NodeSpec(
        name="Summit node (2x POWER9 + 6x V100)",
        gpu=V100,
        gpus_per_node=6,
        injection_bandwidth_gbs=25.0,
        intra_node_bandwidth_gbs=50.0,
        host_memory_gb=512.0,
    ),
    total_nodes=4_608,
    network_latency_us=3.0,
    network_bandwidth_gbs=25.0,
    topology="fat-tree (EDR IB)",
    top500_rank=9,
    peak_pflops_fp64=200.79,
)

LEONARDO = MachineSpec(
    name="Leonardo",
    node=NodeSpec(
        name="Leonardo booster node (4x A100 64GB)",
        gpu=A100,
        gpus_per_node=4,
        injection_bandwidth_gbs=50.0,
        intra_node_bandwidth_gbs=200.0,
        host_memory_gb=512.0,
    ),
    total_nodes=3_456,
    network_latency_us=2.5,
    network_bandwidth_gbs=50.0,
    topology="dragonfly+ (HDR IB)",
    top500_rank=7,
    peak_pflops_fp64=306.31,
)

ALPS = MachineSpec(
    name="Alps",
    node=NodeSpec(
        name="Alps Grace-Hopper supernode (4x GH200)",
        gpu=GH200,
        gpus_per_node=4,
        injection_bandwidth_gbs=100.0,
        intra_node_bandwidth_gbs=450.0,
        host_memory_gb=512.0,
    ),
    total_nodes=2_688,
    network_latency_us=2.0,
    network_bandwidth_gbs=100.0,
    topology="dragonfly (Slingshot-11)",
    top500_rank=6,
    peak_pflops_fp64=353.75,
)

FRONTIER = MachineSpec(
    name="Frontier",
    node=NodeSpec(
        name="Frontier node (4x MI250X)",
        gpu=MI250X,
        gpus_per_node=4,
        injection_bandwidth_gbs=100.0,
        intra_node_bandwidth_gbs=200.0,
        host_memory_gb=512.0,
    ),
    total_nodes=9_472,
    network_latency_us=2.0,
    network_bandwidth_gbs=100.0,
    topology="dragonfly (Slingshot-11)",
    top500_rank=1,
    peak_pflops_fp64=1_710.0,
)


#: All systems keyed by lower-case name.
SYSTEMS: dict[str, MachineSpec] = {
    "summit": SUMMIT,
    "leonardo": LEONARDO,
    "alps": ALPS,
    "frontier": FRONTIER,
}

#: Node counts used for the paper's largest runs (Fig. 8) and Table I.
PAPER_NODE_COUNTS: dict[str, dict[str, int]] = {
    "largest_run": {"frontier": 9_025, "alps": 1_936, "summit": 3_072, "leonardo": 1_024},
    "table1": {"frontier": 1_024, "alps": 1_024, "summit": 1_024, "leonardo": 1_024},
}


def get_system(name: str) -> MachineSpec:
    """Look up a system by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in SYSTEMS:
        raise KeyError(f"unknown system {name!r}; known: {sorted(SYSTEMS)}")
    return SYSTEMS[key]
