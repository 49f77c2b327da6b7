"""E1 — Figure 1: emulator-design cost landscape.

Regenerates the cost-versus-resolution landscape: the O(L^3 T + L^4)
axisymmetric and O(L^4 T + L^6) anisotropic cost curves, the catalogue of
existing emulators, the placement of this work (3.5 km, hourly), and the
245,280x spatio-temporal resolution factor quoted in the introduction.
"""

import numpy as np
import pytest

from benchmarks.conftest import print_table
from benchmarks.paper_model.complexity import (
    EXISTING_EMULATORS,
    THIS_WORK,
    cost_landscape,
    design_cost,
    resolution_factor,
)


@pytest.mark.benchmark(group="fig1")
def test_fig1_cost_landscape(benchmark):
    resolutions = [500.0, 250.0, 100.0, 25.0, 10.0, 3.5]

    landscape = benchmark(cost_landscape, resolutions, 35.0, 8760.0)

    rows = [
        [f"{r:.1f}", int(l), f"{a:.3e}", f"{an:.3e}"]
        for r, l, a, an in zip(
            landscape["resolution_km"],
            landscape["bandlimit"],
            landscape["axisymmetric_flops"],
            landscape["anisotropic_flops"],
        )
    ]
    print_table(
        "Fig. 1 — design cost vs spatial resolution (35 years, hourly)",
        ["res (km)", "L", "axisymmetric flops", "anisotropic flops"],
        rows,
    )

    points = [
        [p.name, f"{p.spatial_resolution_km:.0f}", f"{p.temporal_points_per_year:.0f}",
         "axisym" if p.axisymmetric else "anisotropic", f"{p.cost():.2e}"]
        for p in EXISTING_EMULATORS + (THIS_WORK,)
    ]
    print_table(
        "Fig. 1 — published emulators vs this work",
        ["emulator", "res (km)", "time pts/yr", "class", "design cost (flops)"],
        points,
    )

    factors = resolution_factor()
    print_table(
        "Fig. 1 — resolution improvement over prior state of the art",
        ["spatial", "temporal", "combined (paper: 245,280)"],
        [[f"{factors['spatial_factor']:.1f}x", f"{factors['temporal_factor']:.0f}x",
          f"{factors['combined_factor']:.0f}x"]],
    )

    # Shape assertions: anisotropic always costs more, costs grow as the
    # resolution refines, and this work sits far beyond every prior design.
    assert np.all(landscape["anisotropic_flops"] > landscape["axisymmetric_flops"])
    assert np.all(np.diff(landscape["anisotropic_flops"]) > 0)
    assert THIS_WORK.cost() > 1e3 * max(p.cost() for p in EXISTING_EMULATORS)
    assert 200_000 < factors["combined_factor"] < 300_000


@pytest.mark.benchmark(group="fig1")
def test_fig1_cost_scaling_exponents(benchmark):
    """The fitted log-log slope of the cost curves matches L^6 / L^4 T."""
    bandlimits = np.array([45, 90, 180, 360, 720])

    def costs():
        return np.array([design_cost(l, 35 * 8760, axisymmetric=False) for l in bandlimits])

    values = benchmark(costs)
    slope = np.polyfit(np.log(bandlimits), np.log(values), 1)[0]
    print_table("Fig. 1 — anisotropic cost scaling exponent", ["fitted slope", "expected"],
                [[f"{slope:.2f}", "between 4 (T-dominated) and 6 (Cholesky-dominated)"]])
    assert 3.8 < slope < 6.2
