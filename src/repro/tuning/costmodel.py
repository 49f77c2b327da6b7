"""The ``T_compute + T_comm + T_latency`` cost model, applied to campaigns.

The paper predicts distributed-Cholesky wall time with three additive
terms — compute at the achievable kernel rate, communication volume over
bandwidth, and per-message start-up latency.  This module carries that
exact structure over to the workloads this package actually executes:
ensemble campaigns sharded across a worker pool on one host.

:class:`CampaignShape` summarises a campaign the way a matrix order
summarises a factorisation; :class:`CampaignCostModel` combines a shape
with a measured :class:`~repro.tuning.profile.MachineProfile` and
predicts wall seconds for any ``(executor, max_workers, batch_size)``
candidate.  Structure comes from the runtime's DAG analysis: the model
builds the campaign's block-level :class:`~repro.runtime.dag.TaskGraph`
(store commits serialise on the shared manifest, exactly as the real
chunk-store lock does) and bounds usable parallelism by the graph's
width profile, so a two-block campaign never gets credited with
sixteen-way speedup.

:class:`CostEstimate` is the shared currency of prediction: the systems
layer's :class:`~repro.systems.perf_model.CholeskyPerformanceModel`
returns the same type for the paper-scale GPU estimates, with
``workers`` meaning GPUs there and pool workers here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.dag import TaskGraph, build_task_graph
from repro.runtime.task import Task
from repro.tuning.profile import MachineProfile

__all__ = [
    "CampaignCostModel",
    "CampaignShape",
    "CostEstimate",
    "scaling_efficiencies",
]

#: Fixed per-block dispatch overhead (future creation, result hand-back,
#: manifest record append) — the campaign analogue of the paper's
#: per-message ``alpha``.
_DISPATCH_SECONDS = 2.0e-4

#: Python-level per-block bookkeeping that does not parallelise
#: (seed spawning, plan construction, chunk accounting).
_SERIAL_BLOCK_SECONDS = 1.0e-3

#: Fraction of a process-pool worker's input/output that crosses the
#: pickle boundary relative to the run's output bytes.  Thread pools
#: share memory and pay none of this.
_PROCESS_IPC_FRACTION = 1.0


@dataclass(frozen=True)
class CostEstimate:
    """Predicted wall time of one configuration, split into the three terms.

    The shared result type of every cost model in the package: the
    systems layer prices paper-scale factorisations with it (``workers``
    = GPUs) and the tuning layer prices local campaigns (``workers`` =
    pool workers).  ``label`` says what was priced — a system/variant
    string at paper scale, an ``executor x workers x batch`` string for
    a campaign candidate.
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


def scaling_efficiencies(
    estimates: "list[CostEstimate]", baseline_index: int = 0
) -> "list[float]":
    """Per-worker efficiency of a scaling series relative to a baseline.

    The standard weak/strong-scaling normalisation: each point's
    TFlop/s-per-worker divided by the baseline point's.  1.0 everywhere
    means perfect scaling.
    """
    per_worker = [e.tflops_per_worker for e in estimates]
    if not per_worker:
        return []
    base = per_worker[baseline_index]
    return [p / base if base else 0.0 for p in per_worker]


@dataclass(frozen=True)
class CampaignShape:
    """The size facts of a campaign that determine its cost.

    Built by the planner from the emulator's
    :class:`~repro.core.emulator.TrainingSummary` plus the
    :func:`~repro.scenarios.campaign.run_campaign` arguments; everything
    here is a count or a flag, so shapes are cheap to construct and
    deterministic.
    """

    n_scenarios: int
    n_realizations: int
    n_times: int
    steps_per_year: int
    lmax: int
    ntheta: int
    nphi: int
    store: bool = False
    collect: str = "global-mean"

    @property
    def n_runs(self) -> int:
        """Total runs (scenarios x realizations)."""
        return self.n_scenarios * self.n_realizations

    @property
    def per_step_flops(self) -> float:
        """Arithmetic cost of synthesising one time step for one run.

        The inverse spherical-harmonic transform dominates: a Legendre
        contraction of ``O((lmax+1)^2 * ntheta)`` followed by an FFT of
        ``O(ntheta * nphi * log2(nphi))`` per step.
        """
        legendre = 2.0 * float(self.lmax + 1) ** 2 * float(self.ntheta)
        fft = 5.0 * float(self.ntheta) * float(self.nphi) * float(
            np.log2(max(self.nphi, 2))
        )
        return legendre + fft

    @property
    def run_flops(self) -> float:
        """Arithmetic cost of one full run."""
        return self.per_step_flops * float(self.n_times)

    @property
    def total_flops(self) -> float:
        """Arithmetic cost of the whole campaign."""
        return self.run_flops * float(self.n_runs)

    @property
    def run_output_bytes(self) -> int:
        """Float64 bytes one run synthesises across its full horizon."""
        return int(self.ntheta) * int(self.nphi) * int(self.n_times) * 8

    @property
    def written_bytes(self) -> int:
        """Bytes the campaign actually lands on disk (the chunk store)."""
        return self.run_output_bytes * self.n_runs if self.store else 0


class CampaignCostModel:
    """Price campaign execution candidates against a measured profile.

    Parameters
    ----------
    profile:
        The host's measured :class:`~repro.tuning.profile.MachineProfile`.

    The prediction follows the paper's decomposition:

    * ``T_compute`` — campaign flops over the measured GEMM rate at the
      candidate's *effective* operator size (batching stacks ``b`` runs
      into one synthesis, moving the rate up the measured curve), divided
      by the usable worker count — the measured thread-scaling efficiency
      *and* the block DAG's width profile both cap it;
    * ``T_comm`` — written bytes over the measured store bandwidth
      (commits serialise on the manifest, so this term never shrinks
      with workers), plus pickle traffic for process pools;
    * ``T_latency`` — per-block dispatch cost, plus process-spawn cost
      for process pools, plus the serial per-block bookkeeping.
    """

    def __init__(self, profile: MachineProfile) -> None:
        self.profile = profile

    # ------------------------------------------------------------------ #
    # DAG structure
    # ------------------------------------------------------------------ #
    def build_graph(self, shape: CampaignShape, batch_size: int = 1) -> TaskGraph:
        """The campaign's block-level task graph at a given batch size.

        One ``synth`` task per executed block (a batch of same-scenario
        realizations), every block reading the shared fitted artifact;
        when the campaign writes, one ``commit`` task per block that
        reads the block's output and writes the shared manifest — the
        write-after-write chain on the manifest tile models the store
        lock's serialisation of commits.
        """
        batch_size = max(int(batch_size), 1)
        tasks: "list[Task]" = []
        block = 0
        for s in range(shape.n_scenarios):
            for start in range(0, shape.n_realizations, batch_size):
                width = min(batch_size, shape.n_realizations - start)
                tasks.append(
                    Task(
                        name=f"synth({block})",
                        kind="synth",
                        reads=(("artifact",),),
                        writes=(("block", block),),
                        flops=shape.run_flops * width,
                        metadata={"scenario": s, "width": width},
                    )
                )
                if shape.store:
                    tasks.append(
                        Task(
                            name=f"commit({block})",
                            kind="commit",
                            reads=(("block", block),),
                            writes=(("manifest",),),
                            flops=0.0,
                        )
                    )
                block += 1
        return build_task_graph(tasks)

    # ------------------------------------------------------------------ #
    # The three terms
    # ------------------------------------------------------------------ #
    def _effective_order(self, shape: CampaignShape, batch_size: int) -> int:
        """Square-GEMM order whose measured rate proxies one block's synthesis.

        The synthesis contraction multiplies an ``ntheta x (lmax+1)^2``
        operator against a stacked coefficient block whose width grows
        with the batch; the equivalent-work square order grows with the
        cube root of the total block flops.
        """
        block_flops = shape.per_step_flops * batch_size
        return max(int(round((block_flops / 2.0) ** (1.0 / 3.0))), 8)

    def predict(
        self,
        shape: CampaignShape,
        *,
        executor: str = "thread",
        max_workers: int = 1,
        batch_size: int = 1,
    ) -> CostEstimate:
        """Predicted wall time of running ``shape`` with one configuration."""
        workers = max(int(max_workers), 1)
        batch_size = max(int(batch_size), 1)
        graph = self.build_graph(shape, batch_size)
        n_blocks = sum(1 for t in graph.tasks if t.kind == "synth")

        # Usable parallelism: the pool can never use more lanes than the
        # DAG is wide, and threaded throughput degrades along the
        # measured memory-bandwidth curve.
        width = max(graph.max_parallelism() if shape.store else n_blocks, 1)
        usable = min(workers, width, n_blocks)
        efficiency = self.profile.parallel_efficiency(usable)
        if executor == "process":
            # Workers are separate interpreters: no shared-cache
            # contention, but also no benefit below one block per worker.
            efficiency = 1.0

        rate = self.profile.gemm_rate_gflops(
            self._effective_order(shape, batch_size)
        ) * 1.0e9
        compute = shape.total_flops / (rate * usable * max(efficiency, 1e-3))

        comm = shape.written_bytes / max(self.profile.write_bandwidth_bytes, 1.0)
        if executor == "process":
            ipc = shape.run_output_bytes * shape.n_runs * _PROCESS_IPC_FRACTION
            comm += ipc / max(self.profile.write_bandwidth_bytes, 1.0)

        latency = n_blocks * _DISPATCH_SECONDS + n_blocks * _SERIAL_BLOCK_SECONDS
        if executor == "process":
            latency += self.profile.spawn_seconds * workers

        return CostEstimate(
            label=f"{executor} x{workers} batch={batch_size}",
            workers=workers,
            compute_s=float(compute),
            comm_s=float(comm),
            latency_s=float(latency),
            flops=shape.total_flops,
        )
