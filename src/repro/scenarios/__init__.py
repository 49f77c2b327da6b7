"""Scenario engine: composable forcing pathways and campaign execution.

The paper's storage claim — parameters replace petabytes — pays off when
one fitted emulator is replayed across many futures.  This subpackage is
that replay layer:

* :mod:`repro.scenarios.components` — additive forcing building blocks
  (GHG ramps, volcanic eruptions, aerosol offsets, the solar cycle,
  stabilisation-to-target), each a small serialisable dataclass;
* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, a named sum of
  components with the pipeline-wide ``state_dict()`` / ``from_state()``
  protocol; accepted directly by ``repro.emulate`` in place of a forcing
  array;
* :mod:`repro.scenarios.registry` — the named pathway registry
  (:data:`SCENARIOS`), pre-populated with the five legacy scenarios and
  SSP-like low / medium / high / overshoot pathways; registering a new
  pathway needs no core edits;
* :mod:`repro.scenarios.campaign` — :func:`run_campaign`, the sharded
  multi-scenario, multi-realization runner with per-run
  ``SeedSequence``-spawned streams and a :class:`CampaignManifest`.

``campaign`` imports the API facade and is therefore loaded lazily here:
this package's lower layers (components/spec/registry) are imported by
:mod:`repro.data.forcing` while the core package is still initialising,
and an eager campaign import would close an import cycle through
``repro.api``.
"""

from __future__ import annotations

from repro.scenarios.components import (
    FORCING_COMPONENTS,
    AerosolOffset,
    GHGRamp,
    SolarCycle,
    Stabilisation,
    VolcanicEruption,
    component_from_state,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.registry import (
    SCENARIOS,
    list_scenarios,
    register_scenario,
    resolve_scenario,
    resolve_scenario_state,
)

__all__ = [
    "AerosolOffset",
    "CampaignManifest",
    "FORCING_COMPONENTS",
    "GHGRamp",
    "SCENARIOS",
    "ScenarioSpec",
    "SolarCycle",
    "Stabilisation",
    "VolcanicEruption",
    "component_from_state",
    "iter_chunk_arrays",
    "list_scenarios",
    "plan_campaign",
    "register_scenario",
    "resolve_scenario",
    "resolve_scenario_state",
    "run_campaign",
]

_CAMPAIGN_EXPORTS = {
    "CampaignManifest",
    "iter_chunk_arrays",
    "plan_campaign",
    "run_campaign",
}


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS or name == "campaign":
        from repro.scenarios import campaign

        return campaign if name == "campaign" else getattr(campaign, name)
    raise AttributeError(f"module 'repro.scenarios' has no attribute {name!r}")
