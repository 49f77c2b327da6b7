"""The named forcing-scenario registry.

:data:`SCENARIOS` is a plain dict from canonical name to the factory
producing a :class:`~repro.scenarios.spec.ScenarioSpec`: five original
pathways (historical, constant, linear-ramp, high-emissions,
stabilisation) joined by SSP-like low / medium / high / overshoot
pathways.  :func:`register_scenario` adds one with no edits to
``repro.core``; ``del SCENARIOS[name]`` removes one.

Every factory takes ``start_level`` (the year-0 greenhouse-gas level in
W m^-2, default 2.5) so one registered shape serves any baseline.  A
lookup ignores case and spaces and accepts aliases; an unknown name
raises an error listing every registered scenario.

The registry also names synthesis streams: :func:`stream_address` is the
content-address of a resolved scenario plus the nugget flag, the key a
campaign files its chunks under and a request looks them up by.  For a
registered name it is remembered per ``(name, factory, start_level,
include_nugget)``, so a served request that the cache or store answers
never runs the scenario's factory, and a name registered again (or
removed) is never answered from the memo.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from repro.scenarios.components import (
    AerosolOffset,
    GHGRamp,
    SolarCycle,
    Stabilisation,
    historical_pathway,
)
from repro.scenarios.spec import ScenarioSpec
from repro.storage.address import ADDRESS_SCHEMA, content_address
from repro.util.registry import UnknownBackendError

__all__ = [
    "SCENARIOS",
    "list_scenarios",
    "register_scenario",
    "resolve_scenario",
    "stream_address",
    "stream_state",
]


class _Scenario(NamedTuple):
    """A registered pathway: display name, factory and documentation."""

    name: str
    factory: Callable[..., ScenarioSpec]
    description: str
    aliases: tuple[str, ...]


#: Named forcing pathways: canonical name -> its registration.
SCENARIOS: dict[str, _Scenario] = {}

#: Canonical alias -> canonical name of the pathway it spells.
_ALIASES: dict[str, str] = {}

#: Stream addresses of named scenarios remembered (least recently used
#: out).  One entry per ``(name, factory, start_level, include_nugget)``
#: served.
_STREAM_MEMO = 256


def _canonical(name) -> str:
    """Case-insensitive, whitespace-free lookup key for a scenario name."""
    return str(name).strip().lower().replace(" ", "")


def register_scenario(
    name: str,
    factory=None,
    *,
    description: str = "",
    aliases: tuple[str, ...] = (),
    overwrite: bool = False,
):
    """Register a scenario factory (usable as a decorator).

    The factory must accept ``start_level: float = 2.5`` and return a
    :class:`ScenarioSpec`.  A plain :class:`ScenarioSpec` may also be
    passed; it is wrapped in a constant factory ignoring ``start_level``.
    ``aliases`` are extra names for the same pathway; an alias may never
    shadow another pathway's name.  Registering a taken name or alias
    raises unless ``overwrite=True``, and a rejected registration leaves
    :data:`SCENARIOS` unchanged.
    """
    if factory is None:
        def decorator(func):
            register_scenario(
                name, func, description=description, aliases=aliases,
                overwrite=overwrite,
            )
            return func
        return decorator
    if isinstance(factory, ScenarioSpec):
        spec = factory
        description = description or spec.description
        factory = lambda start_level=2.5: spec

    key = _canonical(name)
    alias_keys = {_canonical(alias): str(alias) for alias in aliases}
    alias_keys.pop(key, None)
    # Validate every key before touching any state.
    if not overwrite and (key in SCENARIOS or key in _ALIASES):
        raise ValueError(
            f"forcing scenario {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    for akey, alias in alias_keys.items():
        if akey in SCENARIOS:
            raise ValueError(
                f"forcing scenario alias {alias!r} would shadow the registered "
                f"backend {SCENARIOS[akey].name!r}"
            )
        if not overwrite and akey in _ALIASES:
            raise ValueError(f"forcing scenario alias {alias!r} is already registered")

    # A stale alias pointing elsewhere would shadow the new name at
    # lookup time (aliases are consulted first), so retire it.
    _ALIASES.pop(key, None)
    SCENARIOS[key] = _Scenario(
        str(name), factory, description, tuple(str(a) for a in aliases)
    )
    _ALIASES.update(dict.fromkeys(alias_keys, key))
    return factory


def _lookup(name) -> _Scenario:
    """The registration ``name`` (or an alias) spells, in any case."""
    key = _canonical(name)
    entry = SCENARIOS.get(_ALIASES.get(key, key))
    if entry is None:
        names = sorted(registered.name for registered in SCENARIOS.values())
        available = ", ".join(repr(n) for n in names) or "<none registered>"
        raise UnknownBackendError(
            f"unknown forcing scenario {str(name)!r}; available backends: "
            f"{available} (see docs/api.md#scenarios)"
        )
    return entry


def _build(factory, scenario, start_level: float) -> ScenarioSpec:
    """Run a registered factory, checking that it built a spec."""
    spec = factory(start_level=start_level)
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"scenario factory {scenario!r} returned {type(spec).__name__}, "
            f"expected ScenarioSpec"
        )
    return spec


def resolve_scenario(scenario, start_level: float = 2.5) -> ScenarioSpec:
    """Resolve a scenario given by spec or registered name (or alias).

    Raises
    ------
    repro.util.registry.UnknownBackendError
        (a ``ValueError``) for an unrecognised name; the message lists
        every registered scenario.
    """
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return _build(_lookup(scenario).factory, scenario, start_level)


def stream_state(scenario, start_level: float = 2.5, include_nugget: bool = True) -> dict:
    """Canonical state of the synthesis stream a scenario reference names.

    Everything that shapes the stream's random-draw schedule — the
    resolved scenario and the nugget flag — and nothing that merely
    *selects* from it (years, window, realization; the realization
    enters at the chunk level, see
    :func:`repro.storage.address.chunk_address`).

    Every spelling of one pathway — a registered name, an alias, or the
    :class:`ScenarioSpec` those resolve to at ``start_level`` — gives one
    state: the scenario enters as the resolved spec's ``state_dict()``,
    a pure function of the pathway's components.
    """
    return {
        "schema": ADDRESS_SCHEMA,
        "kind": "stream",
        "scenario": resolve_scenario(scenario, start_level).state_dict(),
        "include_nugget": bool(include_nugget),
    }


def stream_address(scenario, start_level: float = 2.5, include_nugget: bool = True) -> str:
    """Hex content-address of :func:`stream_state`.

    A registered name (or alias) is resolved at ``float(start_level)``,
    as :class:`~repro.serving.request.FieldRequest` does, and its address
    is remembered; a :class:`ScenarioSpec` is canonicalised every time.
    """
    if not isinstance(scenario, str):
        return content_address(stream_state(scenario, start_level, include_nugget))
    # repr() keys the level exactly: -0.0 and 0.0 compare equal but
    # reach the factory as different bases.
    return _named_stream_address(
        scenario, _lookup(scenario).factory, repr(float(start_level)),
        bool(include_nugget),
    )


@lru_cache(maxsize=_STREAM_MEMO)
def _named_stream_address(
    name: str, factory, start_level: str, include_nugget: bool
) -> str:
    # The memo holds ``factory``, so no other object can take its
    # identity while this entry lives: a registration, an overwrite or a
    # removal changes the key a name looks up, never the answer.
    spec = _build(factory, name, float(start_level))
    return content_address(stream_state(spec, include_nugget=include_nugget))


def list_scenarios() -> dict[str, str]:
    """Mapping from registered scenario name to its one-line description."""
    return {entry.name: entry.description for entry in SCENARIOS.values()}


# --------------------------------------------------------------------- #
# The five original scenarios (trajectories pinned by
# tests/scenarios/test_scenario_registry.py).
# --------------------------------------------------------------------- #
@register_scenario("historical", description="historical-like reconstruction: accelerating GHG ramp + three eruptions")
def _historical(start_level: float = 2.5) -> ScenarioSpec:
    # The reconstruction pins its own 1940-like baseline; start_level is
    # ignored.
    return ScenarioSpec(
        "historical", historical_pathway(),
        description="historical-like reconstruction (GHG ramp + volcanic dips)",
    )


@register_scenario("constant", description="constant forcing at start_level")
def _constant(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "constant", (GHGRamp(base=start_level),),
        description=f"constant forcing at {start_level} W m^-2",
    )


@register_scenario("linear-ramp", description="linear ramp, +0.05 W m^-2 per year")
def _linear_ramp(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "linear-ramp", (GHGRamp(base=start_level, rate=0.05),),
        description="linear ramp, +0.05 W m^-2 per year",
    )


@register_scenario("high-emissions", description="accelerating high-emissions ramp")
def _high_emissions(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "high-emissions", (GHGRamp(base=start_level, rate=0.085, acceleration=0.01),),
        description="accelerating high-emissions ramp",
    )


@register_scenario("stabilisation", description="exponential stabilisation +2.5 W m^-2 on a 30-year timescale")
def _stabilisation(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "stabilisation", (Stabilisation(base=start_level, amplitude=2.5, timescale_years=30.0),),
        description="exponential stabilisation +2.5 W m^-2 (30-year timescale)",
    )


# --------------------------------------------------------------------- #
# SSP-like pathways: low / medium / high / overshoot.
# --------------------------------------------------------------------- #
@register_scenario("ssp-low", aliases=("ssp1-2.6",),
                   description="low pathway: early peak then decline (SSP1-2.6-like)")
def _ssp_low(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "ssp-low",
        (
            Stabilisation(base=start_level, amplitude=1.0, timescale_years=15.0),
            Stabilisation(base=0.0, amplitude=-0.8, timescale_years=30.0, delay_years=30.0),
            AerosolOffset(magnitude=-0.15, fade_start_year=5.0, fade_years=20.0),
        ),
        description="early peak then decline (SSP1-2.6-like)",
    )


@register_scenario("ssp-medium", aliases=("ssp2-4.5",),
                   description="middle-of-the-road stabilisation (SSP2-4.5-like)")
def _ssp_medium(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "ssp-medium",
        (
            Stabilisation(base=start_level, amplitude=2.0, timescale_years=45.0),
            AerosolOffset(magnitude=-0.3, fade_start_year=0.0, fade_years=40.0),
            SolarCycle(amplitude=0.05),
        ),
        description="middle-of-the-road stabilisation (SSP2-4.5-like)",
    )


@register_scenario("ssp-high", aliases=("ssp5-8.5",),
                   description="fossil-fuelled accelerating growth (SSP5-8.5-like)")
def _ssp_high(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "ssp-high",
        (
            GHGRamp(base=start_level, rate=0.1, acceleration=0.012),
            SolarCycle(amplitude=0.05),
        ),
        description="fossil-fuelled accelerating growth (SSP5-8.5-like)",
    )


@register_scenario("overshoot", aliases=("ssp-overshoot",),
                   description="peak then delayed net-negative drawdown")
def _overshoot(start_level: float = 2.5) -> ScenarioSpec:
    return ScenarioSpec(
        "overshoot",
        (
            Stabilisation(base=start_level, amplitude=3.0, timescale_years=25.0),
            Stabilisation(base=0.0, amplitude=-2.2, timescale_years=20.0, delay_years=40.0),
        ),
        description="peak then delayed net-negative drawdown",
    )
