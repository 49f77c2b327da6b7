"""Composable radiative-forcing components.

A forcing pathway is a *sum of physically named parts*: a greenhouse-gas
ramp, discrete volcanic eruptions, an aerosol offset that fades as air
quality improves, the quasi-periodic solar cycle, and a
stabilisation-to-target drawdown.  Each part is a small frozen dataclass
with one job — turn a year count into an annual W m^-2 series — so new
pathways are assembled by composition instead of by editing a dispatch
table.  :class:`~repro.scenarios.spec.ScenarioSpec` holds a tuple of
components and sums them.

Every component serialises through the same ``state_dict()`` /
``component_from_state()`` protocol the rest of the pipeline uses; the
``kind`` tag is resolved through :data:`FORCING_COMPONENTS`, a
:class:`~repro.util.registry.BackendRegistry`, so third-party components
register themselves without edits here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.util.registry import BackendRegistry

__all__ = [
    "AerosolOffset",
    "FORCING_COMPONENTS",
    "ForcingComponent",
    "GHGRamp",
    "HISTORICAL_VOLCANOES",
    "SolarCycle",
    "Stabilisation",
    "VolcanicEruption",
    "component_from_state",
    "historical_pathway",
]

#: Registry resolving a component ``kind`` tag to its dataclass.
FORCING_COMPONENTS = BackendRegistry("forcing component")


def _years(n_years: int) -> np.ndarray:
    """Validated year axis ``0 .. n_years - 1`` as float64."""
    n_years = int(n_years)
    if n_years < 1:
        raise ValueError("n_years must be positive")
    return np.arange(n_years, dtype=np.float64)


class ForcingComponent:
    """One additive term of a forcing pathway.

    Subclasses are frozen dataclasses of scalars, declare a unique
    ``kind`` tag, register themselves in :data:`FORCING_COMPONENTS`, and
    implement :meth:`annual_series`.
    """

    kind: ClassVar[str] = ""

    def annual_series(self, n_years: int) -> np.ndarray:
        """Annual contribution (W m^-2) for years ``0 .. n_years - 1``."""
        raise NotImplementedError

    def state_dict(self) -> dict:
        """JSON-able parameters plus the ``kind`` tag for re-dispatch.

        The fields are scalars, so a shallow dict of them is what
        ``dataclasses.asdict`` would build, without its recursive copy.
        """
        state = {"kind": self.kind}
        for spec in dataclasses.fields(self):
            state[spec.name] = getattr(self, spec.name)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "ForcingComponent":
        """Rebuild a component from :meth:`state_dict` output.

        Dispatches on the ``kind`` tag through
        :func:`component_from_state`; calling this on a concrete subclass
        additionally asserts the rebuilt component is of that subclass.
        """
        component = component_from_state(state)
        if not isinstance(component, cls):
            raise TypeError(
                f"state kind {state.get('kind')!r} rebuilds a "
                f"{type(component).__name__}, not a {cls.__name__}"
            )
        return component


def component_from_state(state: dict) -> ForcingComponent:
    """Rebuild a component from :meth:`ForcingComponent.state_dict` output.

    The ``kind`` tag is resolved through :data:`FORCING_COMPONENTS`, so an
    unknown tag raises an error listing every registered component kind.
    """
    params = {key: value for key, value in state.items() if key != "kind"}
    return FORCING_COMPONENTS.create(state["kind"], **params)


@FORCING_COMPONENTS.register("ghg-ramp", description="(accelerating) greenhouse-gas ramp")
@dataclass(frozen=True)
class GHGRamp(ForcingComponent):
    """Greenhouse-gas growth ``base + rate * y * (1 + acceleration * y)``.

    ``acceleration = 0`` gives a linear ramp; ``rate = 0`` a constant
    level.  The default historical reconstruction uses a gently
    accelerating ramp.
    """

    base: float
    rate: float = 0.0
    acceleration: float = 0.0

    kind: ClassVar[str] = "ghg-ramp"

    def annual_series(self, n_years: int) -> np.ndarray:
        years = _years(n_years)
        return self.base + self.rate * years * (1.0 + self.acceleration * years)


@FORCING_COMPONENTS.register("volcanic-eruption", description="negative eruption excursion with exponential decay")
@dataclass(frozen=True)
class VolcanicEruption(ForcingComponent):
    """A short negative excursion starting at ``year_index``.

    Contributes ``magnitude * exp(-(y - year_index) / decay_years)`` from
    the eruption year onward and nothing before it (eruptions beyond the
    record contribute nothing).
    """

    year_index: int
    magnitude: float
    decay_years: float = 1.5

    kind: ClassVar[str] = "volcanic-eruption"

    def __post_init__(self) -> None:
        if self.year_index < 0:
            raise ValueError("year_index must be non-negative")
        if self.decay_years <= 0:
            raise ValueError("decay_years must be positive")

    def annual_series(self, n_years: int) -> np.ndarray:
        years = _years(n_years)
        decay = np.exp(-np.maximum(years - self.year_index, 0.0) / self.decay_years)
        decay[years < self.year_index] = 0.0
        return self.magnitude * decay


@FORCING_COMPONENTS.register("aerosol-offset", description="aerosol offset, optionally fading out")
@dataclass(frozen=True)
class AerosolOffset(ForcingComponent):
    """A (typically negative) aerosol term.

    Constant at ``magnitude`` when ``fade_years`` is ``None``; otherwise it
    decays as ``exp(-(y - fade_start_year) / fade_years)`` once clean-air
    measures begin at ``fade_start_year`` — the forcing *rises* as the
    offset fades, the usual aerosol-cleanup effect in SSP pathways.
    """

    magnitude: float
    fade_start_year: float = 0.0
    fade_years: float | None = None

    kind: ClassVar[str] = "aerosol-offset"

    def __post_init__(self) -> None:
        if self.fade_years is not None and self.fade_years <= 0:
            raise ValueError("fade_years must be positive (or None for no fade)")

    def annual_series(self, n_years: int) -> np.ndarray:
        years = _years(n_years)
        if self.fade_years is None:
            return np.full(years.shape, self.magnitude)
        fade = np.exp(-np.maximum(years - self.fade_start_year, 0.0) / self.fade_years)
        return self.magnitude * fade


@FORCING_COMPONENTS.register("solar-cycle", description="sinusoidal solar activity cycle")
@dataclass(frozen=True)
class SolarCycle(ForcingComponent):
    """Quasi-periodic solar variability ``amplitude * sin(2 pi (y + phase) / period)``."""

    amplitude: float
    period_years: float = 11.0
    phase_years: float = 0.0

    kind: ClassVar[str] = "solar-cycle"

    def __post_init__(self) -> None:
        if self.period_years <= 0:
            raise ValueError("period_years must be positive")

    def annual_series(self, n_years: int) -> np.ndarray:
        years = _years(n_years)
        phase = 2.0 * np.pi * (years + self.phase_years) / self.period_years
        return self.amplitude * np.sin(phase)


@FORCING_COMPONENTS.register("stabilisation", description="exponential approach to a stabilisation target")
@dataclass(frozen=True)
class Stabilisation(ForcingComponent):
    """Stabilisation-to-target: approach ``base + amplitude`` on ``timescale_years``.

    ``base + amplitude * (1 - exp(-(y - delay_years) / timescale_years))``,
    flat at ``base`` before ``delay_years``.  A negative ``amplitude`` with
    a positive delay models a delayed drawdown, the second leg of an
    overshoot pathway.
    """

    base: float
    amplitude: float
    timescale_years: float
    delay_years: float = 0.0

    kind: ClassVar[str] = "stabilisation"

    def __post_init__(self) -> None:
        if self.timescale_years <= 0:
            raise ValueError("timescale_years must be positive")

    @property
    def target(self) -> float:
        """The level approached as ``y -> inf``."""
        return self.base + self.amplitude

    def annual_series(self, n_years: int) -> np.ndarray:
        years = _years(n_years)
        ramp = 1.0 - np.exp(-np.maximum(years - self.delay_years, 0.0) / self.timescale_years)
        return self.base + self.amplitude * ramp


#: The three historical-like eruptions of the 1940-2022 reconstruction.
HISTORICAL_VOLCANOES: tuple[VolcanicEruption, ...] = (
    VolcanicEruption(year_index=23, magnitude=-2.0),   # Agung-like
    VolcanicEruption(year_index=42, magnitude=-2.5),   # El Chichon-like
    VolcanicEruption(year_index=51, magnitude=-3.0),   # Pinatubo-like
)


def historical_pathway(
    base: float = 0.3,
    growth: float = 0.035,
    acceleration: float = 0.012,
    volcanoes: tuple[VolcanicEruption, ...] = HISTORICAL_VOLCANOES,
) -> tuple[ForcingComponent, ...]:
    """Components of the historical-like reconstruction.

    A slowly accelerating greenhouse-gas ramp plus the three canonical
    eruptions; the registered ``"historical"`` scenario and
    :class:`~repro.data.era5_like.Era5LikeGenerator` sum exactly these
    components.
    """
    return (GHGRamp(base=base, rate=growth, acceleration=acceleration), *volcanoes)
