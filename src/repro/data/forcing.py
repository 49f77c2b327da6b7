"""Radiative forcing trajectories, resolved through the scenario registry.

The mean-trend model (Eq. 2) relates local temperature to an annual-scale
radiative forcing trajectory ``x_t`` (W m^-2).  Forcing pathways are no
longer hardcoded here: every named scenario — the historical-like
reconstruction, the idealised constant / ramp / high-emissions /
stabilisation curves, and the SSP-like low / medium / high / overshoot
pathways — lives in :data:`repro.scenarios.SCENARIOS`, a
:class:`~repro.util.registry.BackendRegistry` of factories producing
composable :class:`~repro.scenarios.spec.ScenarioSpec` objects
(greenhouse-gas ramps, volcanic eruptions, aerosol offsets, solar cycle,
stabilisation-to-target summed together).

This module is the thin data-layer spelling of that registry:

* :func:`scenario_forcing` — look a pathway up by name (or legacy
  :class:`ForcingScenario` member, or a ``ScenarioSpec`` itself) and
  evaluate it; unknown names raise an error listing every registered
  scenario.
* :func:`historical_forcing` — the parameterised historical
  reconstruction, now literally the sum of its registry components.
* :func:`expand_to_resolution` — the ``x_{ceil(t / tau)}`` annual-to-step
  expansion of Eq. (2).

Registering a new pathway (``repro.scenarios.register_scenario``) makes it
available here with **zero edits** to this module.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.scenarios.components import (
    HISTORICAL_VOLCANOES,
    VolcanicEruption,
    historical_pathway,
)
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["ForcingScenario", "historical_forcing", "scenario_forcing", "expand_to_resolution"]


class ForcingScenario(str, Enum):
    """Legacy enum of the original five scenarios.

    Kept for backwards compatibility; the registry accepts these members
    alongside any other registered name (``repro.list_scenarios()`` shows
    the full catalogue).
    """

    HISTORICAL = "historical"
    CONSTANT = "constant"
    LINEAR_RAMP = "linear-ramp"
    HIGH_EMISSIONS = "high-emissions"
    STABILISATION = "stabilisation"


def historical_forcing(
    n_years: int,
    start_year: int = 1940,
    base: float = 0.3,
    growth: float = 0.035,
    volcanoes: tuple[VolcanicEruption, ...] = HISTORICAL_VOLCANOES,
) -> np.ndarray:
    """Historical-like annual radiative forcing (W m^-2).

    A slowly accelerating greenhouse-gas term plus short negative volcanic
    excursions, qualitatively matching the 1940-2022 period the paper's
    daily dataset covers.  Implemented as the component sum of
    :func:`repro.scenarios.components.historical_pathway`, so the curve
    and the registered ``"historical"`` scenario cannot drift apart.
    """
    spec = ScenarioSpec(
        "historical", historical_pathway(base=base, growth=growth, volcanoes=volcanoes)
    )
    return spec.annual_forcing(n_years)


def scenario_forcing(
    scenario: "ForcingScenario | ScenarioSpec | str",
    n_years: int,
    start_level: float = 2.5,
) -> np.ndarray:
    """Annual forcing for a registered scenario (W m^-2).

    ``scenario`` may be a registered name (``"ssp-low"``), a legacy
    :class:`ForcingScenario` member, or a
    :class:`~repro.scenarios.spec.ScenarioSpec`.  An unknown name raises
    :class:`~repro.util.registry.UnknownBackendError` (a ``ValueError``)
    listing every registered scenario.
    """
    return resolve_scenario(scenario, start_level=start_level).annual_forcing(n_years)


def expand_to_resolution(annual_forcing: np.ndarray, steps_per_year: int) -> np.ndarray:
    """Repeat an annual trajectory to a finer temporal resolution.

    Implements the ``x_{ceil(t / tau)}`` indexing of Eq. (2): every time
    step within year ``y`` sees the annual value ``x_y``.
    """
    annual_forcing = np.asarray(annual_forcing, dtype=np.float64)
    if annual_forcing.ndim != 1:
        raise ValueError(
            f"annual_forcing must be 1-D (one value per year), "
            f"got shape {annual_forcing.shape}"
        )
    if annual_forcing.size == 0:
        raise ValueError("annual_forcing must be non-empty")
    if steps_per_year < 1:
        raise ValueError("steps_per_year must be positive")
    return np.repeat(annual_forcing, steps_per_year)
