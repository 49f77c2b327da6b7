"""Scenario specification: a named, serialisable sum of forcing components.

A :class:`ScenarioSpec` is the unit the scenario engine trades in: the
registry stores factories producing them, the campaign runner fans them
out across workers, and :meth:`ClimateEmulator.emulate
<repro.core.emulator.ClimateEmulator.emulate>` accepts one directly in
place of a raw forcing array.  Like every other pipeline stage it follows
the ``state_dict()`` / ``from_state()`` protocol, so a scenario travels
inside manifests and artifacts as plain JSON-able data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.scenarios.components import ForcingComponent

__all__ = ["ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec:
    """A forcing pathway assembled from additive components.

    Parameters
    ----------
    name:
        Identifier used in registries, manifests and output file names.
    components:
        The additive :class:`~repro.scenarios.components.ForcingComponent`
        parts; their annual series are summed in order.
    description:
        One-line human description (surfaced by ``repro.list_scenarios``).

    Examples
    --------
    >>> from repro.scenarios.components import GHGRamp, VolcanicEruption
    >>> spec = ScenarioSpec("ramp+eruption", (
    ...     GHGRamp(base=2.0, rate=0.1),
    ...     VolcanicEruption(year_index=3, magnitude=-2.0),
    ... ))
    >>> spec.annual_forcing(5).round(2).tolist()
    [2.0, 2.1, 2.2, 0.3, 1.37]
    """

    name: str
    components: tuple[ForcingComponent, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not str(self.name):
            raise ValueError("a scenario needs a non-empty name")
        for component in self.components:
            if not callable(getattr(component, "annual_series", None)):
                raise TypeError(
                    f"scenario component {component!r} does not provide annual_series()"
                )

    # ------------------------------------------------------------------ #
    # Evaluation and composition
    # ------------------------------------------------------------------ #
    def annual_forcing(self, n_years: int) -> np.ndarray:
        """Annual forcing trajectory (W m^-2) for years ``0 .. n_years - 1``."""
        n_years = int(n_years)
        if n_years < 1:
            raise ValueError("n_years must be positive")
        if not self.components:
            return np.zeros(n_years, dtype=np.float64)
        total = np.array(self.components[0].annual_series(n_years), dtype=np.float64)
        for component in self.components[1:]:
            total += component.annual_series(n_years)
        return total

    def with_component(self, *components: ForcingComponent) -> "ScenarioSpec":
        """A new spec with ``components`` appended (the original is unchanged)."""
        return dataclasses.replace(self, components=self.components + tuple(components))

    def rename(self, name: str, description: str | None = None) -> "ScenarioSpec":
        """The same pathway under a new name (e.g. before re-registering)."""
        return dataclasses.replace(
            self, name=name,
            description=self.description if description is None else description,
        )

    def __add__(self, other: "ForcingComponent | ScenarioSpec") -> "ScenarioSpec":
        """Compose by addition: ``spec + component`` or ``spec + spec``."""
        if isinstance(other, ScenarioSpec):
            return dataclasses.replace(
                self, components=self.components + other.components
            )
        return self.with_component(other)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """JSON-able state from which :meth:`from_state` rebuilds the spec."""
        return {
            "name": str(self.name),
            "description": str(self.description),
            "components": [component.state_dict() for component in self.components],
        }

    @classmethod
    def from_state(cls, state: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`state_dict` output."""
        return cls(
            name=str(state["name"]),
            description=str(state.get("description", "")),
            components=tuple(
                ForcingComponent.from_state(component)
                for component in state["components"]
            ),
        )
