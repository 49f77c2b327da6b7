"""Tests of the backend registry mechanism and the SHT backends it holds."""

import numpy as np
import pytest

from repro.core.spectral_model import SpectralStochasticModel
from repro.linalg import tile_codes
from repro.sht import Grid, SHTPlan
from repro.sht.backends import SHT_BACKENDS, DirectSHTPlan
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
    def test_builtin_names(self):
        names = SHT_BACKENDS.names()
        assert "fast" in names and "direct" in names
        descriptions = SHT_BACKENDS.describe()
        assert all(descriptions[name] for name in names)

    def test_fast_backend_is_plan(self, small_lmax, small_grid):
        plan = SHT_BACKENDS.create("fast", lmax=small_lmax, grid=small_grid)
        assert isinstance(plan, SHTPlan)

    def test_direct_backend_round_trip(self):
        lmax = 4
        grid = Grid.for_bandlimit(lmax)
        plan = SHT_BACKENDS.create("direct-lstsq", lmax=lmax, grid=grid)
        assert isinstance(plan, DirectSHTPlan)
        reference = SHTPlan(lmax=lmax, grid=grid)
        coeffs = reference.random_coefficients(np.random.default_rng(101))
        fields = plan.inverse(coeffs)
        recovered = plan.forward(fields)
        np.testing.assert_allclose(recovered, coeffs, atol=1e-8)

    def test_unknown_sht_method_raises_with_names(self, small_grid, small_lmax):
        with pytest.raises(UnknownBackendError) as excinfo:
            SpectralStochasticModel(
                lmax=small_lmax, grid=small_grid, sht_method="nonexistent"
            )
        message = str(excinfo.value)
        assert "'fast'" in message and "'direct'" in message

    def test_unknown_name_errors_point_at_the_docs(self):
        """SHT / scenario / Cholesky-variant lookups cross-reference docs/api.md."""
        from repro.scenarios.registry import SCENARIOS

        for lookup in (
            lambda: SHT_BACKENDS.resolve("nonexistent"),
            lambda: SCENARIOS.resolve("rcp-11.0"),
            lambda: tile_codes("DP/QP", 4),
        ):
            with pytest.raises(UnknownBackendError) as excinfo:
                lookup()
            assert "see docs/api.md" in str(excinfo.value)

    def test_new_backend_usable_without_core_edits(self):
        """Registering a name makes it work through the spectral model."""
        SHT_BACKENDS.register(
            "fast-test-alias",
            lambda lmax, grid: SHTPlan(lmax=lmax, grid=grid),
            description="test-only registration",
            overwrite=True,
        )
        try:
            lmax = 4
            grid = Grid.for_bandlimit(lmax)
            model = SpectralStochasticModel(
                lmax=lmax, grid=grid, var_order=1, tile_size=8,
                sht_method="fast-test-alias",
            )
            standardized = np.random.default_rng(102).standard_normal((1, 12) + grid.shape)
            model.fit(standardized)
            assert model.cholesky is not None
        finally:
            SHT_BACKENDS.unregister("fast-test-alias")

