"""The four systems of the paper's evaluation: GPUs, nodes and machines.

The performance studies run on Frontier, Alps, Leonardo and Summit, whose
relevant attributes are the per-GPU peak rates at double, single and half
precision, the GPU memory, the GPUs per node and the interconnect
bandwidth / latency.  Hardware attributes are taken from the paper's
Section IV-D and public specification sheets.  The per-precision peaks
follow the relative speed factors the paper quotes (V100: SP/HP 2x/16x
faster than DP; A100: 16x/32x; H100: 14.7x/29.5x — i.e. the
reduced-precision figures are tensor-core rates), which is what matters for
the mixed-precision performance model (:mod:`benchmarks.paper_model.perf_model`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GPUSpec:
    """A GPU (or GPU die) as seen by the solver.

    Rates are peak arithmetic throughput in GFlop/s for dense kernels at
    each storage precision; ``memory_gb`` is usable device memory.
    """

    name: str
    fp64_gflops: float
    fp32_gflops: float
    fp16_gflops: float
    memory_gb: float

    def rate(self, precision: str) -> float:
        """Peak GFlop/s for a named precision (``fp64``/``fp32``/``fp16``)."""
        return {
            "fp64": self.fp64_gflops,
            "fp32": self.fp32_gflops,
            "fp16": self.fp16_gflops,
        }[precision]


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: a set of identical GPUs plus injection bandwidth."""

    name: str
    gpu: GPUSpec
    gpus_per_node: int
    injection_bandwidth_gbs: float

    @property
    def gpu_memory_gb(self) -> float:
        """Aggregate GPU memory of the node."""
        return self.gpu.memory_gb * self.gpus_per_node


@dataclass(frozen=True)
class MachineSpec:
    """A full system: homogeneous nodes plus a network latency."""

    name: str
    node: NodeSpec
    total_nodes: int
    network_latency_us: float

    def subset(self, nodes: int) -> "MachineSpec":
        """A copy of the machine restricted to ``nodes`` nodes (an allocation)."""
        if nodes < 1 or nodes > self.total_nodes:
            raise ValueError(
                f"requested {nodes} nodes but {self.name} has {self.total_nodes}"
            )
        return replace(self, total_nodes=nodes)

    @property
    def total_gpus(self) -> int:
        """Total GPU count of the allocation."""
        return self.total_nodes * self.node.gpus_per_node

    def theoretical_peak_pflops(self, precision: str = "fp64") -> float:
        """Theoretical peak in PFlop/s at a precision."""
        return self.node.gpu.rate(precision) * self.total_gpus / 1.0e6

    def total_gpu_memory_gb(self) -> float:
        """Aggregate GPU memory of the allocation in GB."""
        return self.node.gpu_memory_gb * self.total_nodes


# --------------------------------------------------------------------------- #
# GPUs (rates in GFlop/s)
# --------------------------------------------------------------------------- #
V100 = GPUSpec("NVIDIA V100 (SXM2 16GB)", 7_800.0, 15_700.0, 125_000.0, 16.0)
A100 = GPUSpec("NVIDIA A100 (SXM4 64GB)", 19_500.0, 156_000.0, 312_000.0, 64.0)
GH200 = GPUSpec("NVIDIA GH200 (H100 96GB)", 34_000.0, 494_000.0, 989_000.0, 96.0)
MI250X = GPUSpec("AMD MI250X (MCM, 128GB)", 47_900.0, 95_700.0, 383_000.0, 128.0)


# --------------------------------------------------------------------------- #
# Systems
# --------------------------------------------------------------------------- #
SUMMIT = MachineSpec(
    "Summit", NodeSpec("Summit node (2x POWER9 + 6x V100)", V100, 6, 25.0),
    total_nodes=4_608, network_latency_us=3.0,
)
LEONARDO = MachineSpec(
    "Leonardo", NodeSpec("Leonardo booster node (4x A100 64GB)", A100, 4, 50.0),
    total_nodes=3_456, network_latency_us=2.5,
)
ALPS = MachineSpec(
    "Alps", NodeSpec("Alps Grace-Hopper supernode (4x GH200)", GH200, 4, 100.0),
    total_nodes=2_688, network_latency_us=2.0,
)
FRONTIER = MachineSpec(
    "Frontier", NodeSpec("Frontier node (4x MI250X)", MI250X, 4, 100.0),
    total_nodes=9_472, network_latency_us=2.0,
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
