"""Named, self-describing backend registries.

A :class:`BackendRegistry` maps a case-insensitive name to a factory,
carries a one-line description per entry, and raises an error that *lists
the available names* when a lookup fails.  Registering a new entry
requires no edits to its consumers.  The packages that own the entries
populate three registries:

* :data:`repro.scenarios.registry.SCENARIOS` — the named forcing pathways;
* :data:`repro.scenarios.components.FORCING_COMPONENTS` — the forcing
  components a scenario sums;
* ``LINT_RULES`` in ``tools/reprolint/rulebase.py`` — the analyzer's rules.

This module is a dependency-free leaf (it imports nothing from ``repro``),
so every layer can use it without touching the API layer; :mod:`repro`
and :mod:`repro.api` re-export it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["BackendRegistry", "BackendSpec", "UnknownBackendError"]


class UnknownBackendError(ValueError):
    """A backend name that no registered backend answers to.

    Subclasses :class:`ValueError` so call sites that historically raised
    ``ValueError`` for unknown names keep their contract.
    """


def _canonical(name: str) -> str:
    """Case-insensitive, whitespace-free lookup key for a backend name."""
    return str(name).strip().lower().replace(" ", "")


@dataclass(frozen=True)
class BackendSpec:
    """A registered backend: display name, factory and documentation."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    aliases: tuple[str, ...] = ()


class BackendRegistry:
    """A mapping from backend names to factories.

    Parameters
    ----------
    kind:
        Human-readable description of what the registry holds (e.g.
        ``"scenario"``); used in error messages.
    doc_hint:
        Optional pointer to the documentation page cataloguing the
        registered backends (e.g. ``"docs/api.md"``); appended to
        unknown-name error messages so the error itself says where the
        catalogue lives.

    ``version`` counts the registrations and removals so far: a caller
    that memoises what an entry's factory produced keys on it, and an
    entry replaced or removed is never answered from the memo.

    Examples
    --------
    >>> registry = BackendRegistry("demo backend")
    >>> @registry.register("double", description="multiply by two")
    ... def make_doubler():
    ...     return lambda x: 2 * x
    >>> registry.create("Double")(21)
    42
    """

    def __init__(self, kind: str, doc_hint: str = "") -> None:
        self.kind = kind
        self.doc_hint = doc_hint
        self._specs: dict[str, BackendSpec] = {}
        self._aliases: dict[str, str] = {}
        self.version = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Callable[..., Any] | None = None,
        *,
        description: str = "",
        aliases: tuple[str, ...] = (),
        overwrite: bool = False,
    ):
        """Register a backend factory under ``name``.

        Usable directly (``registry.register("fast", make_fast)``) or as a
        decorator (``@registry.register("fast")``).  ``aliases`` are extra
        names resolving to the same backend; an alias may never shadow
        another backend's primary name.  Re-registering an existing name
        raises unless ``overwrite=True``.  Validation happens before any
        mutation, so a rejected registration leaves the registry unchanged.
        """
        if factory is None:
            def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
                self.register(
                    name, func, description=description, aliases=aliases,
                    overwrite=overwrite,
                )
                return func
            return decorator

        key = _canonical(name)
        alias_keys: dict[str, str] = {}
        for alias in aliases:
            akey = _canonical(alias)
            if akey != key:
                alias_keys[akey] = str(alias)

        # Validate every key before touching any state.
        if not overwrite and (key in self._specs or key in self._aliases):
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        for akey, alias in alias_keys.items():
            if akey in self._specs:
                raise ValueError(
                    f"{self.kind} alias {alias!r} would shadow the registered "
                    f"backend {self._specs[akey].name!r}"
                )
            if not overwrite and akey in self._aliases:
                raise ValueError(f"{self.kind} alias {alias!r} is already registered")

        spec = BackendSpec(
            name=str(name), factory=factory, description=description,
            aliases=tuple(str(a) for a in aliases),
        )
        # A stale alias pointing elsewhere would shadow the new spec at
        # resolve() time (aliases are consulted first), so retire it.
        self._aliases.pop(key, None)
        self._specs[key] = spec
        for akey in alias_keys:
            self._aliases[akey] = key
        self.version += 1
        return factory

    def unregister(self, name: str) -> None:
        """Remove a backend (and its aliases) from the registry."""
        key = _canonical(name)
        key = self._aliases.get(key, key)
        spec = self._specs.pop(key, None)
        if spec is None:
            raise UnknownBackendError(self._unknown_message(name))
        self._aliases = {a: k for a, k in self._aliases.items() if k != key}
        self.version += 1

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(self, name: str) -> BackendSpec:
        """The :class:`BackendSpec` registered under ``name`` (or an alias).

        Raises
        ------
        UnknownBackendError
            When no backend answers to ``name``; the message lists every
            available name.
        """
        key = _canonical(name)
        key = self._aliases.get(key, key)
        spec = self._specs.get(key)
        if spec is None:
            raise UnknownBackendError(self._unknown_message(name))
        return spec

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Resolve ``name`` and call its factory with the given arguments."""
        return self.resolve(name).factory(*args, **kwargs)

    def _unknown_message(self, name: str) -> str:
        available = ", ".join(repr(n) for n in self.names()) or "<none registered>"
        message = f"unknown {self.kind} {str(name)!r}; available backends: {available}"
        if self.doc_hint:
            message += f" (see {self.doc_hint})"
        return message

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def names(self) -> list[str]:
        """Display names of every registered backend, sorted."""
        return sorted(spec.name for spec in self._specs.values())

    def describe(self) -> dict[str, str]:
        """Mapping from display name to the backend's description."""
        return {spec.name: spec.description for spec in self._specs.values()}

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        key = _canonical(name)
        return key in self._specs or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BackendRegistry(kind={self.kind!r}, names={self.names()})"
