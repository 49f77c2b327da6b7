"""Tests of the machine catalogue and the analytic performance model."""

import numpy as np
import pytest

from repro.linalg.precision import Precision
from repro.systems import (
    ALPS,
    FRONTIER,
    LEONARDO,
    SUMMIT,
    SYSTEMS,
    CholeskyPerformanceModel,
    CostEstimate,
    get_system,
    scaling_efficiencies,
)
from repro.systems.catalog import PAPER_NODE_COUNTS
from repro.systems.perf_model import band_flop_fraction


class TestCatalog:
    def test_lookup(self):
        assert get_system("Frontier") is FRONTIER
        assert get_system("summit") is SUMMIT
        with pytest.raises(KeyError):
            get_system("fugaku")

    def test_paper_gpu_counts(self):
        assert SUMMIT.node.gpus_per_node == 6
        assert SUMMIT.subset(3072).total_gpus == 18_432
        assert FRONTIER.subset(9025).total_gpus == 36_100
        assert ALPS.subset(1936).total_gpus == 7_744
        assert LEONARDO.subset(1024).total_gpus == 4_096

    def test_dp_peaks_close_to_paper(self):
        """Theoretical DP peaks should be near the Section IV-D figures."""
        assert SUMMIT.theoretical_peak_pflops("fp64") == pytest.approx(200.79, rel=0.15)
        assert ALPS.theoretical_peak_pflops("fp64") == pytest.approx(353.75, rel=0.15)
        assert FRONTIER.theoretical_peak_pflops("fp64") == pytest.approx(1710.0, rel=0.15)

    def test_reduced_precision_faster_everywhere(self):
        for machine in SYSTEMS.values():
            gpu = machine.node.gpu
            assert gpu.fp16_gflops > gpu.fp32_gflops >= gpu.fp64_gflops

    def test_paper_node_counts_table(self):
        assert PAPER_NODE_COUNTS["largest_run"]["frontier"] == 9_025
        assert set(PAPER_NODE_COUNTS["table1"].values()) == {1_024}


class TestBandFlopFraction:
    def test_limits(self):
        assert band_flop_fraction(10, 0) == 0.0
        assert band_flop_fraction(10, 10) == pytest.approx(1.0)
        assert band_flop_fraction(0, 1) == 1.0

    def test_monotone_in_width(self):
        values = [band_flop_fraction(100, w) for w in (1, 5, 20, 50)]
        assert values == sorted(values)
        assert values[0] < 0.05


class TestPerformanceModel:
    def test_variant_ordering_matches_paper(self):
        """DP < DP/SP < DP/SP/HP < DP/HP on Summit at scale (Fig. 6)."""
        model = CholeskyPerformanceModel(SUMMIT)
        rates = [model.estimate(8_390_000, 2048, v).pflops for v in ("DP", "DP/SP", "DP/SP/HP", "DP/HP")]
        assert rates == sorted(rates)
        speedup_hp = rates[-1] / rates[0]
        assert 3.5 < speedup_hp < 7.0  # paper: 5.2x
        speedup_sp = rates[1] / rates[0]
        assert 1.5 < speedup_sp < 2.6  # paper: 2.0x

    def test_dp_fraction_of_peak_reasonable(self):
        model = CholeskyPerformanceModel(SUMMIT)
        estimate = model.estimate(8_390_000, 2048, "DP")
        frac = model.fraction_of_dp_peak(estimate)
        assert 0.4 < frac < 0.75  # paper: 61.7%

    def test_table1_cross_system_ordering(self):
        """Alps > Leonardo ~ Frontier > Summit per-GPU at DP/HP (Table I)."""
        per_gpu = {}
        sizes = {"frontier": 8_390_000, "alps": 10_490_000, "leonardo": 8_390_000, "summit": 6_290_000}
        for name, machine in SYSTEMS.items():
            est = CholeskyPerformanceModel(machine).estimate(sizes[name], 1024, "DP/HP")
            per_gpu[name] = est.tflops_per_worker
        assert per_gpu["alps"] > per_gpu["leonardo"]
        assert per_gpu["alps"] > per_gpu["frontier"] > per_gpu["summit"]
        assert per_gpu["alps"] == pytest.approx(93.8, rel=0.25)
        assert per_gpu["summit"] == pytest.approx(25.0, rel=0.25)

    def test_largest_runs_ordering(self):
        """Frontier > Alps > Summit > Leonardo total rate at the largest runs."""
        runs = {
            "frontier": (9025, 27_240_000),
            "alps": (1936, 15_730_000),
            "summit": (3072, 12_580_000),
            "leonardo": (1024, 8_390_000),
        }
        rates = {
            name: CholeskyPerformanceModel(SYSTEMS[name]).estimate(size, nodes, "DP/HP").pflops
            for name, (nodes, size) in runs.items()
        }
        assert rates["frontier"] > rates["alps"] > rates["summit"] > rates["leonardo"]
        assert rates["frontier"] > 900.0  # near-exascale

    def test_estimate_terms_and_rates(self):
        est = CholeskyPerformanceModel(SUMMIT).estimate(1_000_000, 64, "DP/HP")
        assert est.total_s == pytest.approx(
            est.compute_s + est.comm_s + est.latency_s
        )
        assert est.total_s > 0 and est.flops_per_s > 0
        assert est.tflops_per_worker == pytest.approx(
            est.pflops * 1.0e3 / est.workers
        )

    def test_scaling_efficiencies_normalises(self):
        series = [
            CostEstimate("a", 1, 1.0, 0.0, 0.0, 100.0),
            CostEstimate("b", 2, 1.0, 0.0, 0.0, 150.0),
        ]
        eff = scaling_efficiencies(series)
        assert eff[0] == pytest.approx(1.0)
        assert eff[1] == pytest.approx(0.75)
        assert scaling_efficiencies([]) == []

    def test_weak_scaling_roughly_flat(self):
        model = CholeskyPerformanceModel(SUMMIT)
        series = model.weak_scaling([384, 1536, 6144, 12288], "DP/HP")
        eff = scaling_efficiencies(series)
        assert all(0.7 < e <= 1.2 for e in eff)

    def test_strong_scaling_efficiency_decreases(self):
        model = CholeskyPerformanceModel(SUMMIT)
        size = model.memory_bound_matrix_size(512)
        series = model.strong_scaling(size, [3072, 6144, 12288], "DP")
        eff = scaling_efficiencies(series)
        assert eff[0] == pytest.approx(1.0)
        assert eff[1] < 1.0 and eff[2] < eff[1]
        assert 0.4 < eff[2] < 0.75  # paper: 55%

    def test_sender_conversion_and_latency_collectives_help(self):
        new = CholeskyPerformanceModel(SUMMIT, conversion="sender", collective_priority="latency")
        old = CholeskyPerformanceModel(SUMMIT, conversion="receiver", collective_priority="bandwidth")
        speedup = (
            new.estimate(1_270_000, 128, "DP/HP").pflops
            / old.estimate(1_270_000, 128, "DP/HP").pflops
        )
        assert speedup > 1.2  # paper: 1.53x

    def test_larger_matrices_improve_efficiency(self):
        model = CholeskyPerformanceModel(SUMMIT)
        small = model.estimate(2_100_000, 2048, "DP/HP")
        large = model.estimate(8_390_000, 2048, "DP/HP")
        assert large.pflops > small.pflops

    def test_memory_bound_matrix_size_matches_paper_scale(self):
        """Summit 3,072 nodes held a ~12.6M matrix (Fig. 8)."""
        model = CholeskyPerformanceModel(SUMMIT)
        n = model.memory_bound_matrix_size(3072)
        assert 8_000_000 < n < 16_000_000

    def test_flop_fractions_sum_to_one(self):
        model = CholeskyPerformanceModel(SUMMIT)
        for variant in ("DP", "DP/SP", "DP/SP/HP", "DP/HP"):
            fractions = model.flop_fractions(4_000_000, variant)
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_custom_efficiency_override(self):
        model = CholeskyPerformanceModel(SUMMIT, kernel_efficiency={Precision.HALF: 0.1})
        slower = model.estimate(4_000_000, 256, "DP/HP")
        faster = CholeskyPerformanceModel(SUMMIT).estimate(4_000_000, 256, "DP/HP")
        assert slower.pflops < faster.pflops

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            CholeskyPerformanceModel(SUMMIT).estimate(1_000_000, 0)
