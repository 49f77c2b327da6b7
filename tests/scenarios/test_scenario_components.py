"""Tests of the forcing components and the ScenarioSpec container."""

import numpy as np
import pytest

from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.scenarios import ScenarioSpec, resolve_scenario
from repro.scenarios.components import (
    HISTORICAL_VOLCANOES,
    AerosolOffset,
    ForcingComponent,
    GHGRamp,
    SolarCycle,
    Stabilisation,
    VolcanicEruption,
    historical_pathway,
)
from repro.util.registry import UnknownBackendError


class TestComponents:
    def test_ghg_ramp_closed_form(self):
        years = np.arange(10, dtype=np.float64)
        ramp = GHGRamp(base=1.0, rate=0.1, acceleration=0.02)
        np.testing.assert_array_equal(
            ramp.annual_series(10), 1.0 + 0.1 * years * (1.0 + 0.02 * years)
        )

    def test_ghg_ramp_constant_and_linear(self):
        np.testing.assert_array_equal(GHGRamp(base=3.0).annual_series(4), np.full(4, 3.0))
        np.testing.assert_array_equal(
            GHGRamp(base=0.0, rate=0.5).annual_series(4), 0.5 * np.arange(4.0)
        )

    def test_volcanic_eruption_shape(self):
        eruption = VolcanicEruption(year_index=3, magnitude=-2.0, decay_years=1.5)
        series = eruption.annual_series(8)
        assert np.all(series[:3] == 0.0)
        assert series[3] == -2.0
        # Exponential recovery: strictly increasing back towards zero.
        assert np.all(np.diff(series[3:]) > 0)

    def test_eruption_beyond_record_contributes_nothing(self):
        series = VolcanicEruption(year_index=50, magnitude=-3.0).annual_series(10)
        np.testing.assert_array_equal(series, np.zeros(10))

    def test_aerosol_offset_constant_and_fading(self):
        constant = AerosolOffset(magnitude=-0.4)
        np.testing.assert_array_equal(constant.annual_series(5), np.full(5, -0.4))
        fading = AerosolOffset(magnitude=-0.4, fade_start_year=2.0, fade_years=5.0)
        series = fading.annual_series(10)
        assert np.all(series[:3] <= 0.0)
        np.testing.assert_allclose(series[:2], -0.4)
        # The offset fades, so the (negative) contribution rises toward 0.
        assert np.all(np.diff(series[2:]) > 0)

    def test_solar_cycle_period(self):
        cycle = SolarCycle(amplitude=0.1, period_years=11.0)
        series = cycle.annual_series(23)
        assert series[0] == 0.0
        np.testing.assert_allclose(series[11], 0.0, atol=1e-12)
        assert np.max(np.abs(series)) <= 0.1 + 1e-12

    def test_stabilisation_approaches_target(self):
        stab = Stabilisation(base=2.0, amplitude=1.5, timescale_years=10.0)
        series = stab.annual_series(200)
        assert series[0] == 2.0
        assert stab.target == 3.5
        np.testing.assert_allclose(series[-1], 3.5, atol=1e-6)
        assert np.all(np.diff(series) > 0)

    def test_stabilisation_delay_models_drawdown(self):
        drawdown = Stabilisation(base=0.0, amplitude=-1.0, timescale_years=5.0,
                                 delay_years=10.0)
        series = drawdown.annual_series(30)
        np.testing.assert_array_equal(series[:11], np.zeros(11))
        assert np.all(np.diff(series[10:]) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VolcanicEruption(year_index=-1, magnitude=-1.0)
        with pytest.raises(ValueError):
            VolcanicEruption(year_index=0, magnitude=-1.0, decay_years=0.0)
        with pytest.raises(ValueError):
            Stabilisation(base=0.0, amplitude=1.0, timescale_years=0.0)
        with pytest.raises(ValueError):
            SolarCycle(amplitude=0.1, period_years=0.0)
        with pytest.raises(ValueError):
            AerosolOffset(magnitude=-0.3, fade_years=-1.0)
        with pytest.raises(ValueError):
            GHGRamp(base=1.0).annual_series(0)

    def test_state_dict_round_trip(self):
        components = [
            GHGRamp(base=1.0, rate=0.1, acceleration=0.02),
            VolcanicEruption(year_index=5, magnitude=-2.5, decay_years=2.0),
            AerosolOffset(magnitude=-0.3, fade_start_year=4.0, fade_years=10.0),
            AerosolOffset(magnitude=-0.2),
            SolarCycle(amplitude=0.05, period_years=11.0, phase_years=2.0),
            Stabilisation(base=2.5, amplitude=-1.0, timescale_years=20.0, delay_years=30.0),
        ]
        for component in components:
            rebuilt = ForcingComponent.from_state(component.state_dict())
            assert rebuilt == component
            np.testing.assert_array_equal(
                rebuilt.annual_series(40), component.annual_series(40)
            )

    def test_unknown_kind_lists_registered_kinds(self):
        with pytest.raises(UnknownBackendError, match="ghg-ramp"):
            ForcingComponent.from_state({"kind": "fusion-reactor", "power": 1.0})

    def test_subclass_from_state_refuses_another_kind(self):
        with pytest.raises(TypeError, match="GHGRamp, not a Stabilisation"):
            Stabilisation.from_state(GHGRamp(base=1.0).state_dict())


class TestScenarioSpec:
    def test_sum_of_components(self):
        spec = ScenarioSpec("demo", (GHGRamp(base=1.0, rate=0.1),
                                     AerosolOffset(magnitude=-0.5)))
        np.testing.assert_array_equal(
            spec.annual_forcing(6),
            GHGRamp(base=1.0, rate=0.1).annual_series(6) - 0.5,
        )

    def test_empty_spec_is_zero(self):
        np.testing.assert_array_equal(ScenarioSpec("zero").annual_forcing(4), np.zeros(4))

    def test_composition_operators(self):
        base = ScenarioSpec("base", (GHGRamp(base=2.0),))
        extended = base + VolcanicEruption(year_index=1, magnitude=-1.0)
        merged = base + ScenarioSpec("other", (SolarCycle(amplitude=0.1),))
        assert len(base.components) == 1  # originals untouched
        assert len(extended.components) == 2
        assert len(merged.components) == 2
        np.testing.assert_array_equal(
            extended.annual_forcing(5),
            base.annual_forcing(5)
            + VolcanicEruption(year_index=1, magnitude=-1.0).annual_series(5),
        )

    def test_rename(self):
        spec = ScenarioSpec("a", (GHGRamp(base=1.0),), description="d")
        renamed = spec.rename("b")
        assert renamed.name == "b" and renamed.description == "d"
        assert renamed.components == spec.components

    def test_state_dict_round_trip(self):
        spec = ScenarioSpec(
            "round-trip",
            (GHGRamp(base=1.0, rate=0.05),
             Stabilisation(base=0.0, amplitude=-0.5, timescale_years=10.0)),
            description="demo pathway",
        )
        rebuilt = ScenarioSpec.from_state(spec.state_dict())
        assert rebuilt == spec
        np.testing.assert_array_equal(rebuilt.annual_forcing(30), spec.annual_forcing(30))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("")
        with pytest.raises(TypeError):
            ScenarioSpec("bad", components=("not-a-component",))
        with pytest.raises(ValueError):
            ScenarioSpec("ok", (GHGRamp(base=1.0),)).annual_forcing(0)


class TestHistoricalPathway:
    def test_curve_is_the_sum_of_its_components(self):
        """The registered pathway and the generator's forcing never drift
        from the component sum."""
        total = sum(component.annual_series(83) for component in historical_pathway())
        np.testing.assert_array_equal(
            resolve_scenario("historical").annual_forcing(83), total
        )
        sims = Era5LikeGenerator(
            Era5LikeConfig(lmax=4, n_years=83, steps_per_year=1, n_ensemble=1)
        ).generate()
        np.testing.assert_array_equal(sims.forcing_annual, total)

    def test_volcano_years_dip(self):
        rf = resolve_scenario("historical").annual_forcing(83)
        smooth = ScenarioSpec("smooth", historical_pathway(volcanoes=())).annual_forcing(83)
        for volcano in HISTORICAL_VOLCANOES:
            # The dip equals the magnitude up to the (tiny) decay tails of
            # the preceding eruptions.
            dip = rf[volcano.year_index] - smooth[volcano.year_index]
            assert dip == pytest.approx(volcano.magnitude, abs=0.02)
