"""Tests of the EmulatorArtifact save/load round trip and its error paths."""

import gc
import json
import tracemalloc
import weakref
import zipfile

import numpy as np
import pytest
from factor_state import tile_members  # tests/ is on sys.path (rootdir layout)

import repro
from repro.api.artifact import (
    META_KEY,
    SCHEMA_VERSION,
    ArtifactError,
    EmulatorArtifact,
    SchemaVersionError,
)
from repro.api.registry import UnknownBackendError
from repro.core import ClimateEmulator, EmulatorConfig
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.linalg import PRECISIONS, Precision
from repro.storage import measured_artifact_report


class TestRoundTrip:
    def test_bit_exact_emulation_after_reload(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)

        original = fitted_emulator.emulate(2, rng=np.random.default_rng(11))
        reloaded = loaded.emulate(2, rng=np.random.default_rng(11))
        assert np.array_equal(original.data, reloaded.data)

    def test_round_trip_preserves_config_and_metadata(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        assert loaded.config == fitted_emulator.config
        assert loaded.is_fitted
        assert loaded.training is None  # raw ensemble is not persisted
        summary = loaded.training_summary
        original = fitted_emulator.training_summary
        assert summary.grid == original.grid
        assert summary.n_times == original.n_times
        assert summary.n_ensemble == original.n_ensemble
        np.testing.assert_array_equal(summary.forcing_annual, original.forcing_annual)

    def test_round_trip_preserves_cholesky_factor_exactly(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        original = fitted_emulator.spectral_model.cholesky
        restored = loaded.spectral_model.cholesky
        assert np.array_equal(original.lower(), restored.lower())
        assert original.variant == restored.variant
        assert original.flops_by_precision == restored.flops_by_precision
        assert np.array_equal(original.tile_precision, restored.tile_precision)
        assert original.storage_bytes == restored.storage_bytes

    def test_mixed_precision_round_trip(self, small_ensemble, tmp_path):
        emulator = ClimateEmulator(
            EmulatorConfig(lmax=8, var_order=1, tile_size=16,
                           precision_variant="DP/HP", covariance_jitter=1e-4,
                           rho_grid=(0.5,))
        )
        emulator.fit(small_ensemble)
        path = tmp_path / "hp.npz"
        emulator.save(path)
        loaded = ClimateEmulator.load(path)
        a = emulator.emulate(1, rng=np.random.default_rng(5))
        b = loaded.emulate(1, rng=np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)
        codes = loaded.spectral_model.cholesky.tile_precision
        assert (codes == PRECISIONS.index(Precision.HALF)).any()  # reduced-precision tiles survived

    def test_streaming_from_loaded_emulator(self, fitted_emulator, tmp_path):
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        loaded = ClimateEmulator.load(path)
        chunks = list(loaded.emulate_stream(1, n_times=30, chunk_size=12,
                                            rng=np.random.default_rng(0)))
        assert [c.n_times for c in chunks] == [12, 12, 6]
        assert [c.metadata["stream_offset"] for c in chunks] == [0, 12, 24]

    def test_a_saved_state_is_freed_without_the_cycle_collector(self, fitted_emulator, tmp_path):
        """Writing holds no reference cycle: with the collector off, the factor
        buffer is freed as soon as its state is dropped, not at the
        collector's next pass — which can come after the next fit."""
        state = fitted_emulator.state_dict()
        probe = weakref.ref(state["spectral_model"]["cholesky"]["tiles_fp64"])
        gc.collect()
        gc.disable()
        try:
            EmulatorArtifact(state=state).save(tmp_path / "emulator.npz")
            del state
            assert probe() is None
        finally:
            gc.enable()

    def test_save_returns_exact_path(self, fitted_emulator, tmp_path):
        path = tmp_path / "artifact-without-extension"
        returned = fitted_emulator.save(path)
        assert returned == str(path)
        assert path.exists()


def write_schema_1(emulator: ClimateEmulator, path) -> None:
    """Write ``emulator`` in the layout every release before 1.13 wrote.

    Schema 1: the dense ``covariance`` beside one member per tile, all
    deflated.  The fit keeps no covariance; ``L L^T`` stands in for it (the
    loader skips the member either way).
    """
    state = emulator.state_dict()
    state["spectral_model"]["covariance"] = emulator.spectral_model.cholesky.reconstruction()
    packed = state["spectral_model"]["cholesky"]
    cholesky = {k: v for k, v in packed.items() if not isinstance(v, np.ndarray)}
    cholesky["tiles"] = tile_members(packed)
    state["spectral_model"]["cholesky"] = cholesky
    arrays, meta_tree = EmulatorArtifact(state=state)._flatten()
    meta = {
        "format": "repro-emulator-artifact", "schema_version": 1,
        "source_version": "1.12.0", "state": meta_tree,
    }
    payload = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays, **{META_KEY: payload})


@pytest.fixture(scope="module", params=["DP", "DP/SP/HP"])
def variant_emulator(request, small_ensemble):
    return repro.fit(
        small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,),
        precision_variant=request.param, covariance_jitter=1e-4,
    )


class TestSchemas:
    def test_every_way_in_emulates_the_same_bits(self, variant_emulator, tmp_path):
        fitted = variant_emulator
        repro.save(fitted, tmp_path / "v2.npz")
        write_schema_1(fitted, tmp_path / "v1.npz")
        from_v2 = repro.load(tmp_path / "v2.npz")
        from_v1 = repro.load(tmp_path / "v1.npz")
        repro.save(from_v1, tmp_path / "v1_resaved.npz")
        repro.save(from_v2, tmp_path / "v2_resaved.npz")
        # Re-saving a schema-1 load writes exactly the schema-2 artifact.
        written, resaved = (
            EmulatorArtifact.load(tmp_path / name) for name in ("v2.npz", "v1_resaved.npz")
        )
        assert resaved.schema_version == SCHEMA_VERSION
        (arrays, meta), (re_arrays, re_meta) = written._flatten(), resaved._flatten()
        assert meta == re_meta and arrays.keys() == re_arrays.keys()
        for key, array in arrays.items():
            assert array.dtype == re_arrays[key].dtype
            assert np.array_equal(array, re_arrays[key])
        emulators = [
            fitted, from_v2, from_v1,
            repro.load(tmp_path / "v1_resaved.npz"), repro.load(tmp_path / "v2_resaved.npz"),
        ]
        reference, *others = [
            em.emulate(2, n_times=30, rng=np.random.default_rng(7)).data for em in emulators
        ]
        for other in others:
            assert np.array_equal(other, reference)

    def test_schema_1_file_is_what_the_helper_claims(self, variant_emulator, tmp_path):
        write_schema_1(variant_emulator, tmp_path / "v1.npz")
        with zipfile.ZipFile(tmp_path / "v1.npz") as archive:
            names = [info.filename for info in archive.infolist()]
            assert all(info.compress_type == zipfile.ZIP_DEFLATED for info in archive.infolist())
        assert "spectral_model/covariance.npy" in names
        assert sum(n.startswith("spectral_model/cholesky/tiles/") for n in names) == 4 * 5 // 2
        artifact = EmulatorArtifact.load(tmp_path / "v1.npz")
        assert artifact.schema_version == 1
        assert "covariance" not in artifact.state["spectral_model"]  # never inflated

    def test_covariance_is_fit_time_only(
        self, variant_emulator, innovation_covariance, tmp_path
    ):
        """Neither the fitted nor the loaded model holds ``U``; both factors
        reconstruct the ``U`` recomputed from the training innovations."""
        repro.save(variant_emulator, tmp_path / "v2.npz")
        loaded = repro.load(tmp_path / "v2.npz")
        covariance = innovation_covariance(variant_emulator)
        for model in (variant_emulator.spectral_model, loaded.spectral_model):
            assert not hasattr(model, "covariance")
            # ~1e-4: the factorisation's own diagonal jitter
            assert model.cholesky.relative_error(covariance) < 1e-3
        assert loaded.parameter_count() == variant_emulator.parameter_count()
        assert loaded.storage_summary() == variant_emulator.storage_summary()

    def test_saved_layout_is_stored_lean_and_packed(self, tmp_path):
        """The structural gate behind the load-time claim; no timing involved."""
        ensemble = Era5LikeGenerator(
            Era5LikeConfig(lmax=16, n_years=2, steps_per_year=12, n_ensemble=2), seed=1
        ).generate()
        emulator = repro.fit(
            ensemble, lmax=16, var_order=1, tile_size=32, rho_grid=(0.5,),
            precision_variant="DP/SP/HP", covariance_jitter=1e-3,
        )
        repro.save(emulator, tmp_path / "l16.npz")
        with zipfile.ZipFile(tmp_path / "l16.npz") as archive:
            infos = archive.infolist()
        assert all(info.compress_type == zipfile.ZIP_STORED for info in infos)
        stems = [info.filename.removesuffix(".npy") for info in infos]
        assert not any(stem.endswith("covariance") for stem in stems)
        factor = [s for s in stems if s.startswith("spectral_model/cholesky/")]
        assert 2 <= len(factor) <= 4  # <= 3 precision buffers + the codes
        assert len(emulator.spectral_model.cholesky.tile_precision) == 8 * 9 // 2


def test_load_to_first_chunk_never_holds_a_dense_factor(tmp_path):
    """Traced from ``repro.load`` through one generated chunk at L = 32.

    ``dense`` is the ``8 k^2`` bytes of a float64 ``k x k`` array.  What stays
    resident is the factor's lower row panels (0.53) plus the rest of the
    artifact; the load transiently holds the schema-2 packed buffer beside
    them (two half-size arrays, never a square one); the first chunk adds its
    own working set and nothing of the factor's size.
    """
    ensemble = Era5LikeGenerator(
        Era5LikeConfig(lmax=32, n_years=2, steps_per_year=12, n_ensemble=2), seed=1
    ).generate()
    fitted = repro.fit(ensemble, lmax=32, var_order=1, tile_size=64, rho_grid=(0.5,))
    repro.save(fitted, tmp_path / "l32.npz")
    del fitted, ensemble
    dense = 8 * 1024 ** 2
    tracemalloc.start()
    try:
        loaded = repro.load(tmp_path / "l32.npz")
        resident, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        chunk = next(iter(loaded.emulate_stream(
            1, n_times=4, chunk_size=4, rng=np.random.default_rng(0)
        )))
        _, chunk_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor = loaded.spectral_model.cholesky
    assert sum(p.nbytes for _, parts in factor.panels for _, p in parts) <= 0.55 * dense
    assert resident < 0.6 * dense
    assert load_peak < 1.15 * dense
    assert chunk_peak < resident + 0.1 * dense + chunk.data.nbytes


def rewrite_member(source, target, member: str, change) -> None:
    """Copy an artifact with one array member replaced by ``change(array)``."""
    with np.load(source) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays[member] = change(arrays[member])
    with open(target, "wb") as fh:
        np.savez(fh, **arrays)


class TestCorruptFactor:
    @pytest.mark.parametrize(
        "member, change",
        [
            ("tiles_fp64", lambda a: a[: a.size // 2]),
            ("tiles_fp64", lambda a: a.astype(np.float32)),
            ("tile_precision", lambda a: a[:-1]),
            ("tile_precision", lambda a: np.full_like(a, 9)),
        ],
    )
    def test_inconsistent_factor_member_is_an_artifact_error(
        self, fitted_emulator, tmp_path, member, change
    ):
        fitted_emulator.save(tmp_path / "whole.npz")
        rewrite_member(
            tmp_path / "whole.npz", tmp_path / "edited.npz",
            f"spectral_model/cholesky/{member}", change,
        )
        with pytest.raises(ArtifactError, match=member):
            repro.load(tmp_path / "edited.npz")

    def test_flipped_payload_byte_is_an_artifact_error(self, fitted_emulator, tmp_path):
        fitted_emulator.save(tmp_path / "whole.npz")
        damaged = bytearray((tmp_path / "whole.npz").read_bytes())
        with zipfile.ZipFile(tmp_path / "whole.npz") as archive:
            info = archive.getinfo("spectral_model/cholesky/tiles_fp64.npy")
        damaged[info.header_offset + 4096] ^= 0xFF  # inside the factor's payload
        (tmp_path / "damaged.npz").write_bytes(damaged)
        with pytest.raises(ArtifactError, match="tiles_fp64"):
            repro.load(tmp_path / "damaged.npz")

    def test_missing_member_is_an_artifact_error(self, fitted_emulator, tmp_path):
        fitted_emulator.save(tmp_path / "whole.npz")
        with np.load(tmp_path / "whole.npz") as archive:
            arrays = {k: archive[k] for k in archive.files if not k.endswith("nugget_std")}
        with open(tmp_path / "edited.npz", "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ArtifactError, match="nugget_std"):
            repro.load(tmp_path / "edited.npz")


class TestMeasurement:
    def test_storage_summary_measured_bytes(self, fitted_emulator, tmp_path):
        summary = fitted_emulator.storage_summary()
        assert summary["measured_artifact_bytes"] > 0
        assert summary["measured_compression_factor"] > 0
        path = tmp_path / "emulator.npz"
        fitted_emulator.save(path)
        assert summary["measured_artifact_bytes"] == path.stat().st_size

    def test_measured_artifact_report(self, fitted_emulator):
        report = measured_artifact_report(fitted_emulator)
        assert report["measured_artifact_bytes"] > 0
        assert report["parameter_bytes"] == fitted_emulator.parameter_bytes()
        assert report["raw_bytes_float32"] > 0
        assert report["format_overhead_factor"] > 0

    def test_artifact_summary(self, fitted_emulator):
        artifact = fitted_emulator.to_artifact()
        summary = artifact.summary()
        assert summary["schema_version"] == SCHEMA_VERSION
        assert summary["n_arrays"] > 0
        assert summary["nbytes"] == artifact.nbytes()
        assert summary["config"]["lmax"] == fitted_emulator.config.lmax


class TestErrorPaths:
    def test_schema_version_mismatch(self, fitted_emulator, tmp_path):
        artifact = fitted_emulator.to_artifact()
        artifact.schema_version = SCHEMA_VERSION + 1
        path = tmp_path / "future.npz"
        artifact.save(path)
        with pytest.raises(SchemaVersionError) as excinfo:
            EmulatorArtifact.load(path)
        message = str(excinfo.value)
        assert str(SCHEMA_VERSION) in message and str(SCHEMA_VERSION + 1) in message

    def test_only_schemas_1_and_2_are_read(self, fitted_emulator, tmp_path):
        assert SCHEMA_VERSION == 2
        artifact = fitted_emulator.to_artifact()
        artifact.schema_version = 0
        artifact.save(tmp_path / "ancient.npz")
        with pytest.raises(SchemaVersionError):
            EmulatorArtifact.load(tmp_path / "ancient.npz")

    def test_plain_npz_is_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ArtifactError, match="metadata"):
            EmulatorArtifact.load(path)

    def test_non_npz_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-an-archive"
        path.write_bytes(b"definitely not an npz file")
        with pytest.raises(ArtifactError):
            EmulatorArtifact.load(path)

    def test_plain_npy_is_rejected(self, tmp_path):
        path = tmp_path / "array.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(ArtifactError, match="plain array"):
            EmulatorArtifact.load(path)

    def test_truncated_artifact_is_rejected(self, fitted_emulator, tmp_path):
        path = tmp_path / "whole.npz"
        fitted_emulator.save(path)
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ArtifactError):
            EmulatorArtifact.load(truncated)

    def test_unknown_backend_name_in_state_lists_available(self, fitted_emulator):
        state = fitted_emulator.state_dict()
        state["spectral_model"]["sht_method"] = "warp-drive"
        with pytest.raises(UnknownBackendError) as excinfo:
            EmulatorArtifact(state=state).to_emulator()
        message = str(excinfo.value)
        assert "'warp-drive'" in message and "'fast'" in message and "'direct'" in message

    def test_unfitted_emulator_has_no_state(self):
        with pytest.raises(RuntimeError):
            ClimateEmulator(EmulatorConfig(lmax=4)).state_dict()
