"""Tests of the content-addressed request model."""

import numpy as np
import pytest

import repro
from repro.core.window import SpatialWindow
from repro.scenarios import resolve_scenario
from repro.scenarios.registry import stream_state
from repro.serving.request import FieldRequest, chunk_address


class TestValidation:
    def test_defaults_one_year(self):
        request = FieldRequest("ssp-high")
        assert (request.year_start, request.year_stop) == (0, 1)
        assert request.n_years == 1
        assert list(request.years) == [0]

    def test_rejects_bad_year_range(self):
        with pytest.raises(ValueError, match="empty"):
            FieldRequest("ssp-high", year_start=3, year_stop=3)
        with pytest.raises(ValueError, match="year_start"):
            FieldRequest("ssp-high", year_start=-1)

    def test_rejects_negative_realization(self):
        with pytest.raises(ValueError, match="realization"):
            FieldRequest("ssp-high", realization=-1)

    def test_rejects_bad_scenario_type(self):
        with pytest.raises(TypeError, match="scenario"):
            FieldRequest(42)

    def test_rejects_bad_window_type(self):
        with pytest.raises(TypeError, match="window"):
            FieldRequest("ssp-high", window=(0, 3))

    def test_is_hashable_and_frozen(self):
        request = FieldRequest("ssp-high", realization=1)
        assert hash(request) == hash(FieldRequest("ssp-high", realization=1))
        with pytest.raises(AttributeError):
            request.realization = 2


class TestAddressing:
    def test_address_is_deterministic(self):
        a = FieldRequest("ssp-high", realization=2, year_start=1, year_stop=4)
        b = FieldRequest("ssp-high", realization=2, year_start=1, year_stop=4)
        assert a.address() == b.address()
        assert len(a.address()) == 64  # sha256 hex

    def test_aliases_and_specs_share_one_address(self):
        by_name = FieldRequest("ssp-high", realization=1)
        by_alias = FieldRequest("ssp5-8.5", realization=1)
        by_spec = FieldRequest(resolve_scenario("ssp-high"), realization=1)
        assert by_name.address() == by_alias.address() == by_spec.address()

    def test_every_field_enters_the_address(self):
        base = FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2)
        variants = [
            FieldRequest("ssp-low", realization=0, year_start=0, year_stop=2),
            FieldRequest("ssp-high", realization=1, year_start=0, year_stop=2),
            FieldRequest("ssp-high", realization=0, year_start=1, year_stop=2),
            FieldRequest("ssp-high", realization=0, year_start=0, year_stop=3),
            FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2,
                         include_nugget=False),
            FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2,
                         window=SpatialWindow(lat=(0, 4))),
            FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2,
                         start_level=3.0),
        ]
        addresses = {base.address()} | {v.address() for v in variants}
        assert len(addresses) == len(variants) + 1

    def test_start_level_ignored_when_scenario_ignores_it(self):
        # "historical" pins its own baseline, so start_level cannot
        # split its address space.
        assert (
            FieldRequest("historical", start_level=2.5).address()
            == FieldRequest("historical", start_level=9.0).address()
        )

    def test_stream_address_excludes_selection_fields(self):
        a = FieldRequest("ssp-high", realization=0, year_start=0, year_stop=2)
        b = FieldRequest("ssp-high", realization=5, year_start=3, year_stop=9,
                         window=SpatialWindow(lon=(0, 2)))
        assert a.stream_address() == b.stream_address()
        c = FieldRequest("ssp-high", include_nugget=False)
        assert c.stream_address() != a.stream_address()

    def test_chunk_addresses_cover_the_year_range(self):
        request = FieldRequest("ssp-high", realization=2, year_start=3, year_stop=6)
        addresses = request.chunk_addresses()
        assert sorted(addresses) == [3, 4, 5]
        stream = request.stream_address()
        for year, address in addresses.items():
            assert address == chunk_address(stream, 2, year)
        assert len(set(addresses.values())) == 3

    def test_canonical_state_is_json_able(self):
        import json

        request = FieldRequest("ssp-high", realization=1, year_start=0,
                               year_stop=2, window=SpatialWindow(lat=(1, 3)))
        state = request.canonical_state()
        assert json.loads(json.dumps(state)) == state


class TestScenarioStateResolution:
    def test_resolves_names_aliases_and_specs_identically(self):
        by_name = stream_state("ssp-medium")
        by_alias = stream_state("ssp2-4.5")
        by_spec = stream_state(resolve_scenario("ssp-medium"))
        assert by_name == by_alias == by_spec

    def test_state_round_trips_through_spec(self):
        state = stream_state("overshoot")["scenario"]
        spec = repro.ScenarioSpec.from_state(state)
        np.testing.assert_array_equal(
            spec.annual_forcing(10),
            resolve_scenario("overshoot").annual_forcing(10),
        )


class TestStreamAddressMemo:
    """The named-scenario memo never outlives the registration it saw."""

    def test_overwrite_changes_the_next_address(self):
        from repro.scenarios.components import GHGRamp
        from repro.scenarios.registry import SCENARIOS, register_scenario

        register_scenario(
            "memo-overwrite", repro.ScenarioSpec("m", (GHGRamp(base=1.0),))
        )
        try:
            first = FieldRequest("memo-overwrite").stream_address()
            assert FieldRequest("memo-overwrite").stream_address() == first
            register_scenario(
                "memo-overwrite", repro.ScenarioSpec("m", (GHGRamp(base=1.5),)),
                overwrite=True,
            )
            second = FieldRequest("memo-overwrite").stream_address()
            assert second != first
            assert second == FieldRequest(
                repro.ScenarioSpec("m", (GHGRamp(base=1.5),))
            ).stream_address()
        finally:
            del SCENARIOS["memo-overwrite"]

    def test_unregistered_name_raises_instead_of_hitting_the_memo(self):
        from repro.scenarios.registry import SCENARIOS, register_scenario
        from repro.util.registry import UnknownBackendError

        register_scenario("memo-gone", resolve_scenario("ssp-low"))
        FieldRequest("memo-gone").stream_address()
        del SCENARIOS["memo-gone"]
        with pytest.raises(UnknownBackendError, match="memo-gone"):
            FieldRequest("memo-gone").stream_address()

    def test_signed_zero_levels_keep_their_own_addresses(self):
        # 0.0 == -0.0 (equal keys to a naive memo), but the factory builds
        # GHGRamp(base=-0.0), whose canonical JSON differs.
        for level in (0.0, -0.0, 0.0):
            spec = resolve_scenario("constant", start_level=level)
            assert (
                FieldRequest("constant", start_level=level).stream_address()
                == FieldRequest(spec).stream_address()
            )
        assert (
            FieldRequest("constant", start_level=0.0).stream_address()
            != FieldRequest("constant", start_level=-0.0).stream_address()
        )

    def test_concurrent_lookups_return_fresh_derivations(self):
        # More threads than cores and more keys than the chunk memo holds,
        # so entries are evicted while other threads read and insert.
        import sys
        import threading

        from repro.storage.address import (
            _CHUNK_MEMO, ADDRESS_SCHEMA, content_address,
        )

        names = ["ssp-high", "ssp5-8.5", "ssp-low", "constant"]
        streams = {name: FieldRequest(name).stream_address() for name in names}
        wrong = []

        def worker(offset):
            for i in range(offset, offset + _CHUNK_MEMO + 512, 7):
                name = names[i % len(names)]
                if FieldRequest(name).stream_address() != streams[name]:
                    wrong.append(name)
                expected = content_address({
                    "schema": ADDRESS_SCHEMA, "kind": "chunk",
                    "stream": streams[name], "realization": i % 13, "year": i,
                })
                if chunk_address(streams[name], i % 13, i) != expected:
                    wrong.append((name, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k * 97,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
