"""Tests of the named scenario registry: its entries and its rules."""

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
from repro.scenarios import registry
from repro.scenarios.components import historical_pathway
from repro.util.registry import UnknownBackendError

LEGACY_NAMES = ["historical", "constant", "linear-ramp", "high-emissions", "stabilisation"]
SSP_NAMES = ["ssp-low", "ssp-medium", "ssp-high", "overshoot"]


def forcing(name: str, n_years: int, start_level: float = 2.5) -> np.ndarray:
    return resolve_scenario(name, start_level=start_level).annual_forcing(n_years)


class TestRegistryContents:
    def test_all_pathways_registered(self):
        for name in LEGACY_NAMES + SSP_NAMES:
            assert SCENARIOS[name].name == name

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
            del SCENARIOS["bad-factory"]

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
            del SCENARIOS["frozen-level"]

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
            del SCENARIOS["test-drawdown"]


@pytest.fixture
def scratch_table():
    """Put :data:`SCENARIOS` and its alias table back as they were."""
    scenarios, aliases = dict(SCENARIOS), dict(registry._ALIASES)
    yield
    SCENARIOS.clear()
    SCENARIOS.update(scenarios)
    registry._ALIASES.clear()
    registry._ALIASES.update(aliases)


def ramp(level: float):
    """A factory for a constant pathway at ``level``, whatever the start."""
    return lambda start_level=2.5: ScenarioSpec("ramp", (GHGRamp(base=level),))


def level_of(name: str) -> float:
    return float(forcing(name, 1)[0])


@pytest.mark.usefixtures("scratch_table")
class TestRegistrationRules:
    @pytest.mark.parametrize("spelling", ["demo-x", "DEMO-X", " Demo-X ", "demo - x"])
    def test_lookups_ignore_case_and_whitespace(self, spelling):
        register_scenario("Demo-X", ramp(1.0))
        assert level_of(spelling) == 1.0
        assert list_scenarios()["Demo-X"] == ""

    @pytest.mark.parametrize("spelling", ["demo-fft", "DEMO-FFT", " demo - fft "])
    def test_aliases_resolve_to_their_pathway(self, spelling):
        register_scenario("demo-fast", ramp(1.0), aliases=("demo-fft",))
        assert level_of(spelling) == 1.0
        assert SCENARIOS["demo-fast"].aliases == ("demo-fft",)
        assert "demo-fft" not in list_scenarios()

    @pytest.mark.parametrize("taken", ["demo-x", "DEMO-X", "demo-x-alias"])
    def test_a_taken_name_needs_overwrite(self, taken):
        register_scenario("demo-x", ramp(1.0), aliases=("demo-x-alias",))
        with pytest.raises(ValueError, match="already registered; pass overwrite=True"):
            register_scenario(taken, ramp(2.0))
        assert level_of(taken) == 1.0
        register_scenario(taken, ramp(2.0), overwrite=True)
        assert level_of(taken) == 2.0

    def test_overwriting_an_alias_promotes_it_to_a_pathway(self):
        register_scenario("demo-fast", ramp(1.0), aliases=("demo-fft",))
        register_scenario("demo-fft", ramp(2.0), overwrite=True)
        assert level_of("demo-fft") == 2.0
        assert level_of("demo-fast") == 1.0

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_an_alias_may_not_shadow_a_name(self, overwrite):
        before = dict(SCENARIOS), dict(registry._ALIASES)
        with pytest.raises(ValueError, match="would shadow the registered backend 'ssp-high'"):
            register_scenario("demo-mine", ramp(1.0), aliases=("SSP-High",),
                              overwrite=overwrite)
        assert (dict(SCENARIOS), dict(registry._ALIASES)) == before

    @pytest.mark.parametrize("aliases", [("demo-alias-a",), ("demo-new", "demo-alias-a")])
    def test_a_rejected_registration_changes_nothing(self, aliases):
        register_scenario("demo-a", ramp(1.0), aliases=("demo-alias-a",))
        before = dict(SCENARIOS), dict(registry._ALIASES)
        with pytest.raises(ValueError, match="alias 'demo-alias-a' is already registered"):
            register_scenario("demo-b", ramp(2.0), aliases=aliases)
        assert (dict(SCENARIOS), dict(registry._ALIASES)) == before
        assert level_of("demo-alias-a") == 1.0

    @pytest.mark.parametrize("unknown", ["rcp-11.0", "demo-gone", "demo-gone-alias"])
    def test_unknown_names_list_every_name(self, unknown):
        register_scenario("demo-gone", ramp(1.0), aliases=("demo-gone-alias",))
        del SCENARIOS["demo-gone"]
        available = ", ".join(sorted(repr(name) for name in list_scenarios()))
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_scenario(unknown)
        assert str(excinfo.value) == (
            f"unknown forcing scenario {unknown!r}; available backends: "
            f"{available} (see docs/api.md#scenarios)"
        )

    def test_the_unknown_name_error_is_a_value_error(self):
        assert issubclass(UnknownBackendError, ValueError)
        with pytest.raises(ValueError):
            resolve_scenario("rcp-11.0")
