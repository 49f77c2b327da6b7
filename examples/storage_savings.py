#!/usr/bin/env python
"""Storage savings: how an emulator replaces petabytes of archived output.

Reproduces the paper's motivating storage arithmetic: the CMIP context
figures, the size of hourly/kilometre-scale archives, the footprint of the
emulator parameters that can regenerate statistically consistent members on
demand, and the dollar savings at NCAR's $45/TB/year storage cost.

Run from the repository root with:
    PYTHONPATH=src:. python examples/storage_savings.py
"""

from __future__ import annotations

from benchmarks.paper_model.archive import CMIP6_ARCHIVE, StorageScenario, savings_report
from repro.sht.grid import Grid
from repro.storage import format_bytes


def main() -> None:
    print("Context figures quoted in the paper:")
    for key, value in CMIP6_ARCHIVE.items():
        print(f"  {key:35s} {format_bytes(value)}")

    scenarios = [
        ("ERA5 hourly, single field, 35 years (the paper's training set)",
         StorageScenario("era5-hourly", Grid.era5(), 35, 8760), 720, True),
        ("10-member hourly ensemble at 25 km, single field",
         StorageScenario("ensemble-25km", Grid.era5(), 35, 8760, n_ensemble=10), 720, True),
        ("CMIP-style archive: 10 members x 100 fields, 35 years hourly",
         StorageScenario("cmip-style", Grid.era5(), 35, 8760, n_ensemble=10, n_variables=100),
         720, True),
        ("100-member kilometre-scale (3.5 km) hourly ensemble, 10 years",
         StorageScenario("km-scale", Grid.from_resolution(0.034), 10, 8760, n_ensemble=100),
         5219, False),
    ]

    print("\nRaw archive vs emulator parameters:")
    for title, scenario, lmax, full_cov in scenarios:
        report = savings_report(scenario, lmax=lmax, store_full_covariance=full_cov)
        print(f"\n  {title}")
        print(f"    raw archive:        {format_bytes(report['raw_bytes'])}")
        print(f"    emulator footprint: {format_bytes(report['emulator_bytes'])}"
              f"  (L = {lmax}, {'full' if full_cov else 'diagonal'} innovation covariance)")
        print(f"    compression:        {report['compression_factor']:.0f}x")
        print(f"    saved:              {report['saved_petabytes']:.3f} PB"
              f"  (~${report['annual_savings_usd']:,.0f} per year at $45/TB/yr)")

    print("\nThe larger the ensemble, the resolution, and the number of archived")
    print("fields, the more the one-off emulator fit replaces — which is the")
    print("'saving petabytes' argument of the paper's title.")


if __name__ == "__main__":
    main()
