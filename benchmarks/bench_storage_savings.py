"""E10 — storage savings: the "saving petabytes" arithmetic.

Regenerates the introduction's storage narrative: CMIP-class archive sizes,
the cost of kilometre-scale output, the footprint of the fitted emulator
parameters, and the resulting savings in petabytes and dollars per year at
NCAR's $45/TB/year rate.
"""

import pytest

from benchmarks.conftest import print_table
from benchmarks.paper_model.archive import CMIP6_ARCHIVE, StorageScenario, savings_report
from repro.sht.grid import Grid
from repro.storage import format_bytes

SCENARIOS = [
    # (name, grid, years, steps/yr, members, variables, lmax, full covariance)
    ("ERA5 hourly single-field (paper training set)", Grid.era5(), 35, 8760, 1, 1, 720, True),
    ("10-member hourly ensemble at 25 km", Grid.era5(), 35, 8760, 10, 1, 720, True),
    ("CMIP-style archive (10 members x 100 fields)", Grid.era5(), 35, 8760, 10, 100, 720, True),
    ("100-member km-scale hourly ensemble", Grid.from_resolution(0.034), 10, 8760, 100, 1, 5219, False),
]


@pytest.mark.benchmark(group="storage")
def test_storage_savings_report(benchmark):
    def build():
        reports = []
        for name, grid, years, steps, members, variables, lmax, full in SCENARIOS:
            scenario = StorageScenario(
                name=name, grid=grid, n_years=years, steps_per_year=steps,
                n_ensemble=members, n_variables=variables,
            )
            reports.append(savings_report(scenario, lmax=lmax, store_full_covariance=full))
        return reports

    reports = benchmark(build)

    rows = [
        [r["scenario"], format_bytes(r["raw_bytes"]), format_bytes(r["emulator_bytes"]),
         f"{r['compression_factor']:.0f}x", f"{r['saved_petabytes']:.3f}",
         f"{r['annual_savings_usd']:.0f}"]
        for r in reports
    ]
    print_table(
        "E10 — raw archive vs emulator parameters ($45/TB/year)",
        ["scenario", "raw", "emulator", "compression", "PB saved", "$/year saved"],
        rows,
    )

    context = [[k, format_bytes(v)] for k, v in CMIP6_ARCHIVE.items()]
    print_table("E10 — context figures quoted in the paper", ["item", "size"], context)

    by_name = {r["scenario"]: r for r in reports}
    assert by_name["CMIP-style archive (10 members x 100 fields)"]["saved_petabytes"] > 1.0
    assert by_name["100-member km-scale hourly ensemble"]["saved_petabytes"] > 1.0
    assert by_name["100-member km-scale hourly ensemble"]["compression_factor"] > 1000.0
    # Every scenario saves storage and therefore money.
    assert all(r["annual_savings_usd"] > 0 for r in reports)


@pytest.mark.benchmark(group="storage")
def test_fitted_emulator_storage_summary(benchmark, bench_emulator):
    """The fitted (small) emulator reports the same accounting on real objects."""
    summary = benchmark(bench_emulator.storage_summary)
    print_table(
        "E10 — fitted benchmark emulator (L=12, 2 members, 4 years)",
        ["raw (f32)", "parameters", "compression"],
        [[format_bytes(summary["raw_bytes_float32"]),
          format_bytes(summary["parameter_bytes"]),
          f"{summary['compression_factor']:.2f}x"]],
    )
    assert summary["compression_factor"] > 1.0
