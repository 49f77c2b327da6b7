"""Tests of the emulator-design cost model behind Fig. 1."""

import numpy as np
import pytest

from benchmarks.paper_model.complexity import (
    EXISTING_EMULATORS,
    THIS_WORK,
    anisotropic_cost,
    axisymmetric_cost,
    cost_landscape,
    resolution_factor,
)


class TestComplexityModel:
    def test_anisotropic_costs_more(self):
        assert anisotropic_cost(100, 1000) > axisymmetric_cost(100, 1000)

    def test_cost_landscape_monotone_in_resolution(self):
        landscape = cost_landscape([400.0, 100.0, 25.0, 3.5])
        assert np.all(np.diff(landscape["anisotropic_flops"]) > 0)
        assert np.all(np.diff(landscape["bandlimit"]) > 0)

    def test_this_work_resolution_factor(self):
        factors = resolution_factor()
        assert factors["spatial_factor"] == pytest.approx(28.6, rel=0.05)
        assert factors["temporal_factor"] == pytest.approx(8760.0)
        assert factors["combined_factor"] == pytest.approx(245_280, rel=0.1)

    def test_this_work_dominates_existing_designs(self):
        assert THIS_WORK.cost() > max(p.cost() for p in EXISTING_EMULATORS)
        assert THIS_WORK.bandlimit > max(p.bandlimit for p in EXISTING_EMULATORS)

    def test_existing_catalogue_is_plausible(self):
        for point in EXISTING_EMULATORS:
            assert point.spatial_resolution_km >= 100.0
            assert point.temporal_points_per_year <= 365.0
