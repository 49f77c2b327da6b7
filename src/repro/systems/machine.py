"""Machine models: GPUs, nodes, full systems, and the collective policy.

The performance studies in the paper run on four systems (Frontier, Alps,
Leonardo, Summit) whose relevant attributes are the per-GPU peak rates at
double, single and half precision, the GPU memory capacity, the number of
GPUs per node, and the interconnect bandwidth/latency.  This module defines
the dataclasses consumed by the analytic performance model
(:mod:`repro.systems.perf_model`) and the collective-priority enum of the
paper's Section III-C; the concrete catalogue of the four systems lives in
:mod:`repro.systems.catalog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CollectivePriority",
    "GPUSpec",
    "MachineSpec",
    "NodeSpec",
]


class CollectivePriority(str, Enum):
    """Collective-communication scheduling policy (Section III-C).

    PaRSEC originally maximised aggregate bandwidth by letting many
    collectives progress concurrently, which at scale produced
    starvation; the fix prioritised the latency of individual
    collectives.  ``BANDWIDTH`` models the original mode (start-up
    latency inflated by contention), ``LATENCY`` the improved one.
    """

    BANDWIDTH = "bandwidth"
    LATENCY = "latency"


@dataclass(frozen=True)
class GPUSpec:
    """A GPU (or GPU die) as seen by the solver.

    Rates are peak arithmetic throughput in GFlop/s for dense kernels at
    each storage precision; ``memory_gb`` is usable device memory.  The
    ``kernel_efficiency`` factor is the fraction of peak a well-tuned tile
    kernel (large GEMM) achieves, which the analytic model uses as the
    per-kernel roofline.
    """

    name: str
    fp64_gflops: float
    fp32_gflops: float
    fp16_gflops: float
    memory_gb: float
    kernel_efficiency: float = 0.85

    def rate(self, precision: str) -> float:
        """Peak GFlop/s for a named precision (``fp64``/``fp32``/``fp16``)."""
        try:
            return {
                "fp64": self.fp64_gflops,
                "fp32": self.fp32_gflops,
                "fp16": self.fp16_gflops,
            }[precision]
        except KeyError as exc:  # pragma: no cover - defensive
            raise ValueError(f"unknown precision {precision!r}") from exc

    def effective_rate(self, precision: str) -> float:
        """Sustained GFlop/s for tile kernels at a named precision."""
        return self.rate(precision) * self.kernel_efficiency


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: a set of identical GPUs plus injection bandwidth."""

    name: str
    gpu: GPUSpec
    gpus_per_node: int
    injection_bandwidth_gbs: float
    intra_node_bandwidth_gbs: float = 200.0
    host_memory_gb: float = 512.0

    @property
    def fp64_gflops(self) -> float:
        """Aggregate double-precision peak of the node."""
        return self.gpu.fp64_gflops * self.gpus_per_node

    @property
    def gpu_memory_gb(self) -> float:
        """Aggregate GPU memory of the node."""
        return self.gpu.memory_gb * self.gpus_per_node


@dataclass(frozen=True)
class MachineSpec:
    """A full system: homogeneous nodes plus a network model."""

    name: str
    node: NodeSpec
    total_nodes: int
    network_latency_us: float = 5.0
    network_bandwidth_gbs: float = 25.0
    topology: str = "fat-tree"
    top500_rank: int | None = None
    peak_pflops_fp64: float | None = None

    def subset(self, nodes: int) -> "MachineSpec":
        """A copy of the machine restricted to ``nodes`` nodes (an allocation)."""
        if nodes < 1 or nodes > self.total_nodes:
            raise ValueError(
                f"requested {nodes} nodes but {self.name} has {self.total_nodes}"
            )
        return MachineSpec(
            name=self.name,
            node=self.node,
            total_nodes=nodes,
            network_latency_us=self.network_latency_us,
            network_bandwidth_gbs=self.network_bandwidth_gbs,
            topology=self.topology,
            top500_rank=self.top500_rank,
            peak_pflops_fp64=self.peak_pflops_fp64,
        )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_gpus(self) -> int:
        """Total GPU count of the allocation."""
        return self.total_nodes * self.node.gpus_per_node

    def aggregate_rate(self, precision: str, sustained: bool = True) -> float:
        """Aggregate GFlop/s at a precision across the allocation."""
        per_gpu = (
            self.node.gpu.effective_rate(precision)
            if sustained
            else self.node.gpu.rate(precision)
        )
        return per_gpu * self.total_gpus

    def theoretical_peak_pflops(self, precision: str = "fp64") -> float:
        """Theoretical peak in PFlop/s at a precision."""
        return self.aggregate_rate(precision, sustained=False) / 1.0e6

    def total_gpu_memory_gb(self) -> float:
        """Aggregate GPU memory of the allocation in GB."""
        return self.node.gpu_memory_gb * self.total_nodes

    def max_matrix_size(self, bytes_per_element: float = 8.0, fill_fraction: float = 0.85) -> int:
        """Largest square matrix order that fits in aggregate GPU memory.

        The paper sizes its largest runs by "maxing out the device memory";
        ``fill_fraction`` accounts for runtime buffers (PaRSEC internal
        memory) and workspace.
        """
        usable = self.total_gpu_memory_gb() * 1.0e9 * fill_fraction
        return int((usable / bytes_per_element) ** 0.5)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MachineSpec({self.name}, nodes={self.total_nodes}, "
            f"gpus={self.total_gpus}, gpu={self.node.gpu.name})"
        )
