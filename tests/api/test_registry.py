"""Tests of the unknown-name errors."""

import pytest

from repro.core.spectral_model import SpectralStochasticModel
from repro.linalg import tile_codes
from repro.sht import Grid, get_plan
from repro.util.registry import UnknownBackendError


class TestShtBackends:
    """Unknown SHT method names, beside the other tables' unknown names."""

    def test_unknown_sht_method_raises_with_names(self, small_grid, small_lmax):
        with pytest.raises(UnknownBackendError) as excinfo:
            SpectralStochasticModel(
                lmax=small_lmax, grid=small_grid, sht_method="nonexistent"
            )
        message = str(excinfo.value)
        assert "'nonexistent'" in message and "'fast'" in message

    def test_unknown_name_errors_point_at_the_docs(self):
        """SHT / scenario / Cholesky-variant lookups cross-reference docs/api.md."""
        from repro.scenarios import resolve_scenario

        for lookup in (
            lambda: get_plan("nonexistent", 4, Grid.for_bandlimit(4)),
            lambda: resolve_scenario("rcp-11.0"),
            lambda: tile_codes("DP/QP", 4),
        ):
            with pytest.raises(UnknownBackendError) as excinfo:
                lookup()
            assert "see docs/api.md" in str(excinfo.value)
