"""Tests of the named scenario registry and its legacy-compatible entries."""

import numpy as np
import pytest

import repro
from repro.scenarios import (
    SCENARIOS,
    GHGRamp,
    ScenarioSpec,
    Stabilisation,
    list_scenarios,
    register_scenario,
    resolve_scenario,
)
from repro.scenarios.components import historical_pathway
from repro.util.registry import UnknownBackendError

LEGACY_NAMES = ["historical", "constant", "linear-ramp", "high-emissions", "stabilisation"]
SSP_NAMES = ["ssp-low", "ssp-medium", "ssp-high", "overshoot"]


def forcing(name: str, n_years: int, start_level: float = 2.5) -> np.ndarray:
    return resolve_scenario(name, start_level=start_level).annual_forcing(n_years)


class TestRegistryContents:
    def test_all_pathways_registered(self):
        names = SCENARIOS.names()
        for name in LEGACY_NAMES + SSP_NAMES:
            assert name in names

    def test_list_scenarios_has_descriptions(self):
        catalogue = list_scenarios()
        assert set(LEGACY_NAMES + SSP_NAMES) <= set(catalogue)
        assert all(catalogue[name] for name in catalogue)
        assert repro.list_scenarios() == catalogue

    def test_ssp_aliases_resolve_to_same_pathway(self):
        for alias, name in [("ssp1-2.6", "ssp-low"), ("ssp2-4.5", "ssp-medium"),
                            ("ssp5-8.5", "ssp-high"), ("ssp-overshoot", "overshoot")]:
            np.testing.assert_array_equal(
                forcing(alias, 30), forcing(name, 30)
            )


class TestLegacyEquivalence:
    """The five original scenarios must stay bit-identical to the old dispatch."""

    def test_historical(self):
        np.testing.assert_array_equal(
            forcing("historical", 60),
            ScenarioSpec("historical", historical_pathway()).annual_forcing(60),
        )

    def test_constant(self):
        np.testing.assert_array_equal(forcing("constant", 50, start_level=1.75),
                                      np.full(50, 1.75))

    def test_linear_ramp(self):
        years = np.arange(50, dtype=np.float64)
        np.testing.assert_array_equal(forcing("linear-ramp", 50),
                                      2.5 + 0.05 * years)

    def test_high_emissions(self):
        years = np.arange(50, dtype=np.float64)
        np.testing.assert_array_equal(forcing("high-emissions", 50),
                                      2.5 + 0.085 * years * (1.0 + 0.01 * years))

    def test_stabilisation(self):
        years = np.arange(50, dtype=np.float64)
        np.testing.assert_array_equal(forcing("stabilisation", 50),
                                      2.5 + 2.5 * (1.0 - np.exp(-years / 30.0)))

    @pytest.mark.parametrize("scenario", LEGACY_NAMES)
    def test_original_names_resolve(self, scenario):
        rf = forcing(scenario, 40)
        assert rf.shape == (40,)
        assert np.all(np.isfinite(rf))


class TestSspPathwayShapes:
    def test_relative_ordering_at_horizon(self):
        low = forcing("ssp-low", 80)
        medium = forcing("ssp-medium", 80)
        high = forcing("ssp-high", 80)
        assert high[-1] > medium[-1] > low[-1]

    def test_low_pathway_peaks_then_declines(self):
        low = forcing("ssp-low", 100)
        peak = int(np.argmax(low))
        assert 0 < peak < 60
        assert low[-1] < low[peak] - 0.3

    def test_overshoot_peaks_then_draws_down(self):
        overshoot = forcing("overshoot", 100)
        peak = int(np.argmax(overshoot))
        assert 20 < peak < 70
        assert overshoot[-1] < overshoot[peak] - 0.5
        # but stays above the starting level (overshoot, not collapse)
        assert overshoot[-1] > overshoot[0] - 0.5


class TestResolutionAndRegistration:
    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownBackendError, match="historical"):
            resolve_scenario("rcp9.9")

    def test_resolve_passes_spec_through(self):
        spec = ScenarioSpec("inline", (GHGRamp(base=1.0),))
        assert resolve_scenario(spec) is spec

    def test_factory_must_return_spec(self):
        register_scenario("bad-factory", lambda start_level=2.5: np.zeros(3))
        try:
            with pytest.raises(TypeError, match="ScenarioSpec"):
                resolve_scenario("bad-factory")
        finally:
            SCENARIOS.unregister("bad-factory")

    def test_register_spec_directly(self):
        spec = ScenarioSpec(
            "frozen-level", (GHGRamp(base=4.0),), description="pinned at 4"
        )
        register_scenario("frozen-level", spec)
        try:
            # start_level is irrelevant for a pinned spec
            np.testing.assert_array_equal(
                forcing("frozen-level", 5, start_level=99.0), np.full(5, 4.0)
            )
        finally:
            SCENARIOS.unregister("frozen-level")

    def test_new_scenario_needs_no_core_edits(self, fitted_emulator):
        """Register a pathway, then drive the emulator by name — zero core edits."""

        @register_scenario("test-drawdown", description="rise then fall")
        def _drawdown(start_level: float = 2.5) -> ScenarioSpec:
            return ScenarioSpec("test-drawdown", (
                Stabilisation(base=start_level, amplitude=2.0, timescale_years=10.0),
                Stabilisation(base=0.0, amplitude=-1.5, timescale_years=10.0,
                              delay_years=20.0),
            ))

        try:
            spy = fitted_emulator.training_summary.steps_per_year
            out = fitted_emulator.emulate(
                1, n_times=2 * spy, annual_forcing="test-drawdown",
                rng=np.random.default_rng(0),
            )
            expected = fitted_emulator.emulate(
                1, n_times=2 * spy,
                annual_forcing=forcing("test-drawdown", 2),
                rng=np.random.default_rng(0),
            )
            np.testing.assert_array_equal(out.data, expected.data)
        finally:
            SCENARIOS.unregister("test-drawdown")
