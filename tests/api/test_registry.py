"""Tests of the backend registry mechanism and the unknown-name errors."""

import pytest

from repro.core.spectral_model import SpectralStochasticModel
from repro.linalg import tile_codes
from repro.sht import Grid, get_plan
from repro.util.registry import BackendRegistry, UnknownBackendError


class TestBackendRegistry:
    def test_register_and_create(self):
        registry = BackendRegistry("demo backend")
        registry.register("double", lambda: (lambda x: 2 * x), description="times two")
        assert registry.create("double")(21) == 42
        assert "double" in registry and len(registry) == 1

    def test_decorator_registration(self):
        registry = BackendRegistry("demo backend")

        @registry.register("triple", description="times three")
        def make_tripler():
            return lambda x: 3 * x

        assert registry.create("triple")(14) == 42
        assert registry.describe() == {"triple": "times three"}

    def test_case_and_whitespace_insensitive(self):
        registry = BackendRegistry("demo backend")
        registry.register("DP/SP", lambda: "policy")
        assert registry.create("dp/sp") == "policy"
        assert registry.create(" DP / SP ") == "policy"

    def test_aliases(self):
        registry = BackendRegistry("demo backend")
        registry.register("fast", lambda: "fast", aliases=("fft",))
        assert registry.create("FFT") == "fast"
        assert registry.resolve("fft").name == "fast"

    def test_duplicate_registration_rejected(self):
        registry = BackendRegistry("demo backend")
        registry.register("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("X", lambda: 2)
        registry.register("x", lambda: 2, overwrite=True)
        assert registry.create("x") == 2

    def test_overwriting_an_alias_promotes_it_to_a_backend(self):
        """A stale alias must not shadow a spec registered over it."""
        registry = BackendRegistry("demo backend")
        registry.register("fast", lambda: "fast", aliases=("fft",))
        registry.register("fft", lambda: "standalone", overwrite=True)
        assert registry.create("fft") == "standalone"
        assert registry.create("fast") == "fast"

    def test_alias_may_not_shadow_a_primary_name(self):
        registry = BackendRegistry("demo backend")
        registry.register("fast", lambda: "fast")
        for overwrite in (False, True):
            with pytest.raises(ValueError, match="shadow"):
                registry.register("mine", lambda: "mine", aliases=("fast",),
                                  overwrite=overwrite)
        # A rejected registration leaves the registry unchanged.
        assert registry.names() == ["fast"]
        assert "mine" not in registry

    def test_failed_registration_is_atomic(self):
        registry = BackendRegistry("demo backend")
        registry.register("a", lambda: "a", aliases=("alias-a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("b", lambda: "b", aliases=("alias-a",))
        assert "b" not in registry
        assert registry.create("alias-a") == "a"

    def test_unknown_name_lists_available(self):
        registry = BackendRegistry("demo backend")
        registry.register("alpha", lambda: 1)
        registry.register("beta", lambda: 2)
        with pytest.raises(UnknownBackendError) as excinfo:
            registry.resolve("gamma")
        message = str(excinfo.value)
        assert "demo backend" in message and "'gamma'" in message
        assert "'alpha'" in message and "'beta'" in message

    def test_unknown_is_value_error(self):
        registry = BackendRegistry("demo backend")
        with pytest.raises(ValueError):
            registry.resolve("anything")

    def test_unregister(self):
        registry = BackendRegistry("demo backend")
        registry.register("x", lambda: 1, aliases=("y",))
        registry.unregister("y")
        assert "x" not in registry and "y" not in registry
        with pytest.raises(UnknownBackendError):
            registry.unregister("x")


class TestShtBackends:
    """Unknown SHT method names, beside the registries' unknown names."""

    def test_unknown_sht_method_raises_with_names(self, small_grid, small_lmax):
        with pytest.raises(UnknownBackendError) as excinfo:
            SpectralStochasticModel(
                lmax=small_lmax, grid=small_grid, sht_method="nonexistent"
            )
        message = str(excinfo.value)
        assert "'nonexistent'" in message and "'fast'" in message

    def test_unknown_name_errors_point_at_the_docs(self):
        """SHT / scenario / Cholesky-variant lookups cross-reference docs/api.md."""
        from repro.scenarios.registry import SCENARIOS

        for lookup in (
            lambda: get_plan("nonexistent", 4, Grid.for_bandlimit(4)),
            lambda: SCENARIOS.resolve("rcp-11.0"),
            lambda: tile_codes("DP/QP", 4),
        ):
            with pytest.raises(UnknownBackendError) as excinfo:
                lookup()
            assert "see docs/api.md" in str(excinfo.value)
