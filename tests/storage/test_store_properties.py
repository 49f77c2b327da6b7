"""Property-based round-trip laws of the two chunk encodings.

Hypothesis drives shapes, dtypes and magnitudes (including subnormals
and 1e±200 extremes) through ``put``/``get`` and pins the contracts the
rest of the system leans on:

* ``float64`` is *bit*-lossless — any finite-or-not pattern round-trips;
* ``int16`` records a measured ``max_abs_error`` that really bounds the
  observed reconstruction error and respects the analytic half-step
  bound from its affine scale;
* ``int16`` rejects non-finite chunks *before* anything lands on disk.

Each example gets a fresh store root under one ``tmp_path``, so the
function-scoped-fixture health check is deliberately suppressed.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.storage.chunkstore import _CHUNK_ENCODINGS, ChunkStore

_COUNTER = itertools.count()

#: Finite float64s wide enough to hit subnormals and 1e200 extremes but
#: keeping ``hi - lo`` representable (the int16 affine map needs the
#: midrange/halfrange arithmetic to stay finite).
finite_values = st.floats(
    min_value=-1e200, max_value=1e200,
    allow_nan=False, allow_infinity=False, width=64,
    allow_subnormal=True,
)

shapes = st.one_of(
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    st.just((0,)),  # empty chunks are legal
)


def fresh_store(tmp_path, encoding: str) -> ChunkStore:
    return ChunkStore(tmp_path / f"s{next(_COUNTER)}", encoding=encoding)


@st.composite
def finite_arrays(draw):
    return draw(hnp.arrays(np.float64, draw(shapes), elements=finite_values))


class TestFloat64Losslessness:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        array=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
            elements=st.floats(allow_nan=True, allow_infinity=True, width=64),
        )
    )
    def test_bit_identical_round_trip_even_for_non_finite(self, tmp_path, array):
        store = fresh_store(tmp_path, "float64")
        entry = store.put("aa11", array)
        decoded = store.get("aa11")
        # Bit identity, not value identity: NaNs compare equal here and
        # signed zeros stay distinguishable.
        assert np.array_equal(
            decoded.view(np.uint64), array.view(np.uint64)
        )
        assert entry["max_abs_error"] == 0.0
        assert store.max_abs_error() == 0.0

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        array=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
            # Castable to every target dtype without overflow.
            elements=st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False, allow_infinity=False),
        ),
        dtype=st.sampled_from(["float32", "int32", "int64"]),
    )
    def test_foreign_input_dtypes_round_trip_via_float64(self, tmp_path, array,
                                                         dtype):
        cast = array.astype(dtype)
        store = fresh_store(tmp_path, "float64")
        store.put("aa11", cast)
        assert np.array_equal(store.get("aa11"), cast.astype(np.float64))


class TestLossyErrorBounds:
    def test_int16_stores_magnitudes_beyond_float32(self, tmp_path):
        """The range-scaled tier keeps ±1e39, past float32's ~3.4e38."""
        store = fresh_store(tmp_path, "int16")
        array = np.array([-1e39, 1e39])
        entry = store.put("aa11", array)
        assert np.array_equal(store.get("aa11"), array)
        assert entry["max_abs_error"] == 0.0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(array=finite_arrays())
    def test_int16_error_is_measured_and_analytically_bounded(self, tmp_path,
                                                              array):
        store = fresh_store(tmp_path, "int16")
        entry = store.put("aa11", array)
        decoded = store.get("aa11")
        observed = float(np.max(np.abs(decoded - array))) if array.size else 0.0
        # The manifest records the truth...
        assert entry["max_abs_error"] == observed
        assert observed <= store.max_abs_error()
        # ...and the truth respects the affine map's analytic bound: a
        # half quantization step plus float64 rounding of the transform
        # (scaled by the data's magnitude).
        if array.size:
            lo, hi = float(array.min()), float(array.max())
            half = 0.5 * (hi - lo)
            scale = entry.get("scale", 1.0)
            slack = 8 * np.finfo(np.float64).eps * (
                half + max(abs(lo), abs(hi)) + 1.0
            )
            assert observed <= 0.5 * scale + slack

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(array=finite_arrays())
    def test_constant_chunks_quantize_exactly(self, tmp_path, array):
        constant = np.full_like(array, array.flat[0] if array.size else 0.0)
        store = fresh_store(tmp_path, "int16")
        entry = store.put("aa11", constant)
        assert entry["max_abs_error"] == 0.0
        assert np.array_equal(store.get("aa11"), constant)


class TestNonFiniteRejection:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        array=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
            # Healthy and encodable by the lossy tier, so the poison
            # value is the only thing validation can object to.
            elements=st.floats(min_value=-1e30, max_value=1e30,
                               allow_nan=False, allow_infinity=False),
        ),
        poison=st.sampled_from([np.nan, np.inf, -np.inf]),
        via_batch=st.booleans(),
    )
    def test_lossy_put_rejects_before_touching_disk(self, tmp_path, array,
                                                    poison, via_batch):
        if not array.size:
            array = np.zeros(1)
        poisoned = array.copy()
        poisoned.flat[len(poisoned.flat) // 2] = poison
        store = fresh_store(tmp_path, "int16")
        with pytest.raises(ValueError, match="non-finite"):
            if via_batch:
                # A poisoned batch must not strand its healthy chunks
                # as orphan shards either.
                store.put_many({"aa11": array, "bb22": poisoned})
            else:
                store.put("bb22", poisoned)
        assert len(store) == 0
        assert store.addresses() == []
        # Nothing landed on disk: the chunks tree is still empty.
        from pathlib import Path

        chunk_files = [
            p for p in Path(store.root).joinpath("chunks").rglob("*")
            if p.is_file()
        ]
        assert chunk_files == []


class TestIdempotentPut:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        array=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
            # Encodable by every tier.
            elements=st.floats(min_value=-1e38, max_value=1e38,
                               allow_nan=False, allow_infinity=False),
        ),
        encoding=st.sampled_from(_CHUNK_ENCODINGS),
    )
    def test_second_put_returns_the_committed_entry(self, tmp_path, array,
                                                    encoding):
        store = fresh_store(tmp_path, encoding)
        first = store.put("aa11", array)
        second = store.put("aa11", np.zeros_like(array))  # content ignored
        assert first == second
        assert store.put_many({"aa11": array}) == 0
