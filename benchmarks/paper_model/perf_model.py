"""Analytic performance model of the mixed-precision tile Cholesky at scale.

The paper's headline numbers (Figures 5-8, Table I) are achieved Flop/s of
a tile Cholesky factorisation on thousands of GPUs.  Those machines are not
available here, so the benchmark harness uses a calibrated analytic model
with the classical structure of distributed dense factorisations:

``T = T_compute + T_comm + T_latency``

* ``T_compute`` — the ``n^3/3`` operations split across precisions
  according to the tile policy (band fractions evaluated in closed form),
  each precision running at the GPU's peak rate scaled by a per-precision
  kernel efficiency (tensor-core kernels reach a smaller fraction of their
  much higher peak than DP kernels do);
* ``T_comm`` — the 2D-distribution communication volume
  ``~ n^2 * bytes / sqrt(P)`` per GPU at the injection bandwidth, with the
  element size set by the wire precision (which is where the sender- versus
  receiver-side conversion choice enters);
* ``T_latency`` — panel-broadcast start-up costs
  ``~ n_tiles * log2(P) * alpha``, inflated in the bandwidth-first
  collective mode (Section III-C).

The model is *calibrated for shape, not absolute agreement*: the recorded
constants reproduce the paper's orderings and ratios (DP < DP/SP <
DP/SP/HP < DP/HP, the ~2x / ~3x / ~5x Summit speedups, flat weak scaling,
strong-scaling efficiency ordering, and the cross-system ranking of
Table I) within a reasonable margin.

Estimates are returned as :class:`CostEstimate` values (``workers`` =
GPUs), one per configuration with the three terms kept apart; scaling
series are plain estimate lists normalised by
:func:`scaling_efficiencies`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from benchmarks.paper_model.machines import MachineSpec
from benchmarks.paper_model.tasks import ConversionSide
from repro.linalg.flops import cholesky_flops
from repro.linalg.precision import Precision


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
class CostEstimate:
    """Predicted wall time of one configuration, split into the three terms.

    ``workers`` is the allocation's GPU count and ``label`` says what
    was priced (system, variant, matrix order).
    """

    label: str
    workers: int
    compute_s: float
    comm_s: float
    latency_s: float
    flops: float

    @property
    def total_s(self) -> float:
        """Predicted wall seconds (the sum of the three terms)."""
        return self.compute_s + self.comm_s + self.latency_s

    @property
    def flops_per_s(self) -> float:
        """Achieved Flop/s implied by the prediction."""
        return self.flops / self.total_s if self.total_s > 0 else 0.0

    @property
    def pflops(self) -> float:
        """Achieved PFlop/s."""
        return self.flops_per_s / 1.0e15

    @property
    def eflops(self) -> float:
        """Achieved EFlop/s."""
        return self.flops_per_s / 1.0e18

    @property
    def tflops_per_worker(self) -> float:
        """Achieved TFlop/s per worker (Table I's normalised metric)."""
        return self.flops_per_s / 1.0e12 / self.workers if self.workers else 0.0


def scaling_efficiencies(estimates: "list[CostEstimate]") -> "list[float]":
    """Per-worker efficiency of a scaling series relative to its first point.

    The standard weak/strong-scaling normalisation: each point's
    TFlop/s-per-worker divided by the first point's.  1.0 everywhere
    means perfect scaling.
    """
    per_worker = [e.tflops_per_worker for e in estimates]
    if not per_worker:
        return []
    base = per_worker[0]
    return [p / base if base else 0.0 for p in per_worker]


def band_flop_fraction(n_tiles: int, band_tiles: float) -> float:
    """Fraction of Cholesky update flops within ``band_tiles`` of the diagonal.

    The update (GEMM/SYRK) flops of tile ``(i, j)`` are proportional to
    ``j + 1``; summing over the band ``|i - j| < w`` and normalising by the
    total gives the closed-form fraction used to split flops between
    precisions for a band policy.
    """
    if n_tiles < 1:
        return 1.0
    w = int(np.clip(np.ceil(band_tiles), 0, n_tiles))
    d = np.arange(0, n_tiles, dtype=np.float64)
    inner = (n_tiles - d) * (n_tiles - d + 1.0) / 2.0
    total = float(inner.sum())
    if total <= 0:
        return 1.0
    return float(inner[:w].sum() / total)


#: Per-GPU-family calibration of the reduced-precision kernel efficiencies.
#: The values are chosen so the DP/HP per-GPU rates of Table I are matched
#: (V100 ~25, A100 ~57, GH200 ~94, MI250X ~55 TFlop/s per GPU): newer, wider
#: tensor cores deliver a smaller fraction of their much larger peak for this
#: non-AI workload, and Frontier/Alps additionally stage communication
#: through the host (no GPU-aware MPI yet, per Section V-C).
GPU_FAMILY_EFFICIENCY: dict[str, dict[Precision, float]] = {
    "V100": {Precision.DOUBLE: 0.80, Precision.SINGLE: 0.80, Precision.HALF: 0.30},
    "A100": {Precision.DOUBLE: 0.80, Precision.SINGLE: 0.35, Precision.HALF: 0.22},
    "GH200": {Precision.DOUBLE: 0.80, Precision.SINGLE: 0.16, Precision.HALF: 0.105},
    "MI250X": {Precision.DOUBLE: 0.80, Precision.SINGLE: 0.55, Precision.HALF: 0.16},
}


def _family_efficiency(gpu_name: str) -> dict[Precision, float]:
    """Calibrated kernel efficiencies for a GPU, by name lookup."""
    for family, table in GPU_FAMILY_EFFICIENCY.items():
        if family.lower() in gpu_name.lower():
            return dict(table)
    raise KeyError(f"no kernel-efficiency calibration for {gpu_name!r}")


#: Tile edge length ``nb`` of the modelled runs (the paper uses O(1000)-sized
#: tiles).
_TILE_SIZE = 2048

#: Dimensionless calibration constants of the communication volume and of
#: the number of panel-broadcast start-ups per tile column.
_COMM_VOLUME_FACTOR = 0.7
_LATENCY_MESSAGES_FACTOR = 3.0

#: GPU count at which bisection contention doubles the per-GPU
#: communication time.
_BISECTION_CONTENTION_GPUS = 20_000.0

#: Share of the allocation's GPU memory the matrix may fill (the rest holds
#: runtime buffers and workspace), and the stored bytes per element of the
#: lower triangle (most tiles at reduced precision under DP/HP).
_MEMORY_FILL_FRACTION = 0.8
_MEMORY_BYTES_PER_ELEMENT = 2.5


class CholeskyPerformanceModel:
    """Closed-form performance model of the tile Cholesky on a machine.

    Parameters
    ----------
    machine:
        Target system.
    conversion:
        Sender- or receiver-side precision conversion (affects wire bytes).
    collective_priority:
        Latency-first (the paper's improved mode) or bandwidth-first
        collective handling (affects the latency term).
    """

    def __init__(
        self,
        machine: MachineSpec,
        conversion: ConversionSide | str = ConversionSide.SENDER,
        collective_priority: CollectivePriority | str = CollectivePriority.LATENCY,
    ) -> None:
        self.machine = machine
        self.kernel_efficiency = _family_efficiency(machine.node.gpu.name)
        self.conversion = ConversionSide(conversion)
        self.collective_priority = CollectivePriority(collective_priority)

    # ------------------------------------------------------------------ #
    # Precision bookkeeping
    # ------------------------------------------------------------------ #
    def flop_fractions(self, matrix_size: int, variant: str) -> dict[Precision, float]:
        """Fraction of factorisation flops executed at each precision.

        Only the paper's four variants (DP, DP/SP, DP/SP/HP, DP/HP) are
        priced; any other name raises :class:`ValueError`.
        """
        n_tiles = max(int(np.ceil(matrix_size / _TILE_SIZE)), 1)
        key = variant.strip().upper().replace(" ", "")
        if key == "DP":
            return {Precision.DOUBLE: 1.0}
        dp_frac = band_flop_fraction(n_tiles, 1)
        if key == "DP/SP":
            return {Precision.DOUBLE: dp_frac, Precision.SINGLE: 1.0 - dp_frac}
        if key == "DP/HP":
            return {Precision.DOUBLE: dp_frac, Precision.HALF: 1.0 - dp_frac}
        if key == "DP/SP/HP":
            sp_frac = band_flop_fraction(n_tiles, 1 + 0.05 * n_tiles) - dp_frac
            return {
                Precision.DOUBLE: dp_frac,
                Precision.SINGLE: max(sp_frac, 0.0),
                Precision.HALF: max(1.0 - dp_frac - sp_frac, 0.0),
            }
        raise ValueError(
            f"no flop split for precision variant {variant!r}; "
            "the model prices DP, DP/SP, DP/SP/HP and DP/HP"
        )

    # ------------------------------------------------------------------ #
    # Core estimate
    # ------------------------------------------------------------------ #
    def estimate(
        self, matrix_size: int, nodes: int, variant: str = "DP/HP"
    ) -> CostEstimate:
        """Predict the factorisation performance for one configuration.

        Returns a :class:`CostEstimate` whose
        ``workers`` is the allocation's GPU count and whose label names
        the system, variant and matrix order.
        """
        if nodes < 1:
            raise ValueError("nodes must be positive")
        allocation = self.machine.subset(min(nodes, self.machine.total_nodes))
        gpus = allocation.total_gpus
        gpu = allocation.node.gpu
        n = float(matrix_size)
        total_flops = cholesky_flops(matrix_size)
        fractions = self.flop_fractions(matrix_size, variant)

        compute = 0.0
        for precision, fraction in fractions.items():
            rate = gpu.rate(precision.value) * 1.0e9 * self.kernel_efficiency[precision]
            compute += total_flops * fraction / (rate * gpus)

        # Bytes per communicated element: panels travel at their stored
        # precision after a sender-side conversion, and (mostly) in double
        # precision, unconverted, under the receiver-side one.
        if self.conversion is ConversionSide.RECEIVER:
            bytes_per_element = float(Precision.DOUBLE.bytes_per_element)
        else:
            bytes_per_element = float(
                sum(p.bytes_per_element * f for p, f in fractions.items())
            )
        injection_per_gpu = (
            allocation.node.injection_bandwidth_gbs
            * 1.0e9
            / allocation.node.gpus_per_node
        )
        # At very large GPU counts the global traffic of the panel
        # broadcasts starts contending for bisection bandwidth; the achieved
        # per-GPU bandwidth degrades accordingly.
        contention = 1.0 + gpus / _BISECTION_CONTENTION_GPUS
        comm_volume_per_gpu = (
            _COMM_VOLUME_FACTOR * n * n * bytes_per_element / np.sqrt(gpus)
        )
        comm = comm_volume_per_gpu * contention / injection_per_gpu

        n_tiles = max(int(np.ceil(matrix_size / _TILE_SIZE)), 1)
        alpha = allocation.network_latency_us * 1.0e-6
        if self.collective_priority is CollectivePriority.BANDWIDTH:
            alpha *= 4.0
        latency = (
            _LATENCY_MESSAGES_FACTOR * n_tiles * np.log2(max(gpus, 2)) * alpha
        )

        return CostEstimate(
            label=f"{allocation.name} {variant} n={matrix_size}",
            workers=gpus,
            compute_s=float(compute),
            comm_s=float(comm),
            latency_s=float(latency),
            flops=total_flops,
        )

    # ------------------------------------------------------------------ #
    # Derived studies
    # ------------------------------------------------------------------ #
    def memory_bound_matrix_size(self, nodes: int) -> int:
        """Largest matrix order fitting the allocation's GPU memory.

        The paper sizes its largest runs by maxing out device memory
        including runtime buffers.  Only the lower triangle is stored and
        most tiles sit at reduced precision under the DP/HP policy, hence
        ~2.5 bytes per element of the triangle; 80 % of the memory is
        left to the matrix, the rest to runtime buffers and workspace.
        """
        allocation = self.machine.subset(nodes)
        usable = allocation.total_gpu_memory_gb() * 1.0e9 * _MEMORY_FILL_FRACTION
        # reprolint: allow[index-recovery] analytic sizing heuristic on floats, not an exact index/band-limit recovery
        return int(np.sqrt(2.0 * usable / _MEMORY_BYTES_PER_ELEMENT))

    def weak_scaling(
        self,
        gpu_counts: list[int],
        variant: str = "DP/HP",
    ) -> list[CostEstimate]:
        """Constant-memory-per-GPU scaling series (paper Fig. 7 left): half of
        each GPU's memory in double-precision elements.

        One estimate per GPU count; normalise with
        :func:`scaling_efficiencies`.
        """
        elements_per_gpu = self.machine.node.gpu.memory_gb * 1.0e9 * 0.5 / 8.0
        estimates = []
        for g in gpu_counts:
            nodes = max(1, int(np.ceil(g / self.machine.node.gpus_per_node)))
            # reprolint: allow[index-recovery] analytic sizing heuristic on floats, not an exact index/band-limit recovery
            n = int(np.sqrt(elements_per_gpu * g))
            estimates.append(self.estimate(n, nodes, variant))
        return estimates

    def strong_scaling(
        self,
        matrix_size: int,
        gpu_counts: list[int],
        variant: str = "DP/HP",
    ) -> list[CostEstimate]:
        """Fixed-problem-size scaling series (paper Fig. 7 right).

        One estimate per GPU count; normalise with
        :func:`scaling_efficiencies`.
        """
        estimates = []
        for g in gpu_counts:
            nodes = max(1, int(np.ceil(g / self.machine.node.gpus_per_node)))
            estimates.append(self.estimate(matrix_size, nodes, variant))
        return estimates
