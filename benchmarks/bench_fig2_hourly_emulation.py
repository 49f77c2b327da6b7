"""E2 — Figure 2: hourly simulations versus emulations.

The paper plots hourly ERA5 surface temperature next to a single emulation
for two days (Jan 1 and Jun 1, 2019) to illustrate statistical consistency.
This benchmark fits the emulator on the synthetic ERA5-like ensemble with a
diurnal cycle, generates an emulation of the same length, and reports the
quantitative consistency diagnostics for a "winter" day and a "summer" day
(the seasonal extremes of the synthetic calendar) plus the whole record.
"""

import pytest

from benchmarks.conftest import print_table
from repro.stats import consistency_report, field_moments
from repro.stats.distributions import quantile_table


@pytest.mark.benchmark(group="fig2")
def test_fig2_hourly_emulation_consistency(benchmark, bench_simulations, bench_emulator):
    emulations = benchmark(
        bench_emulator.emulate, 2, bench_simulations.n_times, None, 19
    )

    report = consistency_report(bench_simulations, emulations, lmax=12)
    print_table(
        "Fig. 2 — simulation vs emulation consistency (whole record)",
        ["metric", "value"],
        [[k, f"{v:.4f}"] for k, v in report.as_dict().items()],
    )

    steps = bench_simulations.steps_per_year
    days = {"winter (step 0)": 0, "summer (mid-year)": steps // 2}
    rows = []
    for label, step in days.items():
        sim_day = bench_simulations.data[:, step::steps]
        emu_day = emulations.data[:, step::steps]
        sim_stats = field_moments(sim_day, bench_simulations.grid)
        emu_stats = field_moments(emu_day, bench_simulations.grid)
        rows.append(
            [label, f"{sim_stats['mean']:.2f}", f"{emu_stats['mean']:.2f}",
             f"{sim_stats['std']:.2f}", f"{emu_stats['std']:.2f}"]
        )
    print_table(
        "Fig. 2 — seasonal snapshots (area-weighted K)",
        ["day", "sim mean", "emu mean", "sim std", "emu std"],
        rows,
    )

    sim_q = quantile_table(bench_simulations.data)
    emu_q = quantile_table(emulations.data)
    print_table(
        "Fig. 2 — temperature quantiles (K)",
        ["quantile", "simulation", "emulation"],
        [[f"{q:.2f}", f"{sim_q[q]:.2f}", f"{emu_q[q]:.2f}"] for q in sim_q],
    )

    assert report.is_consistent()
    for q in sim_q:
        assert abs(sim_q[q] - emu_q[q]) < 6.0

    for label, step in days.items():
        sim_day = field_moments(bench_simulations.data[:, step::steps], bench_simulations.grid)
        emu_day = field_moments(emulations.data[:, step::steps], bench_simulations.grid)
        assert abs(sim_day["mean"] - emu_day["mean"]) < 2.0
        assert abs(sim_day["std"] / emu_day["std"] - 1.0) < 0.3
