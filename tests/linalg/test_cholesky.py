"""Tests of the tile-based mixed-precision Cholesky factorisation."""

import numpy as np
import pytest

import repro
import repro.linalg.cholesky as cholesky_module
from repro.linalg import (
    MixedPrecisionCholesky,
    TiledSymmetricMatrix,
    VARIANTS,
    dense_cholesky,
    generate_cholesky_tasks,
)
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.flops import cholesky_flops, cholesky_tile_counts
from repro.runtime import Task, build_task_graph


class TestDenseReference:
    def test_matches_numpy(self, spd_matrix):
        ours = dense_cholesky(spd_matrix)
        ref = np.linalg.cholesky(spd_matrix)
        assert np.allclose(ours, ref)

    def test_jitter_recovers_rank_deficient(self):
        a = np.ones((5, 5))  # rank one, singular
        with pytest.raises(np.linalg.LinAlgError):
            dense_cholesky(a)
        l = dense_cholesky(a, jitter=1e-6)
        assert np.all(np.isfinite(l))


class TestTaskGeneration:
    def test_task_counts_match_formula(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 16, "DP")
        tasks = generate_cholesky_tasks(tiled)
        counts = cholesky_tile_counts(tiled.n_tiles)
        by_kind = {}
        for t in tasks:
            by_kind[t.kind] = by_kind.get(t.kind, 0) + 1
        assert by_kind == counts

    def test_flops_sum_close_to_dense_count(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP")
        tasks = generate_cholesky_tasks(tiled)
        total = sum(t.flops for t in tasks)
        assert total == pytest.approx(cholesky_flops(64), rel=0.1)

    def test_dag_is_acyclic_with_expected_dependencies(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 16, "DP")
        graph = build_task_graph(generate_cholesky_tasks(tiled))
        # First POTRF has no predecessors; last POTRF depends on earlier work.
        assert not graph.predecessors(graph.tasks[0])
        last_potrf = [t for t in graph.tasks if t.name == f"POTRF({tiled.n_tiles - 1})"][0]
        assert graph.predecessors(last_potrf)

    def test_precision_assignment_follows_policy(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        tasks = generate_cholesky_tasks(tiled)
        potrf = [t for t in tasks if t.kind == "POTRF"]
        gemm_far = [t for t in tasks if t.kind == "GEMM" and t.name == "GEMM(7,1,0)"]
        assert all(t.precision == "fp64" for t in potrf)
        assert gemm_far and gemm_far[0].precision == "fp16"

    def test_sender_conversion_counts_fewer_than_receiver(self, spd_matrix):
        tiled = TiledSymmetricMatrix.from_dense(spd_matrix, 8, "DP/HP")
        sender = sum(
            t.metadata.get("conversions", 0)
            for t in generate_cholesky_tasks(tiled, conversion="sender")
        )
        receiver = sum(
            t.metadata.get("conversions", 0)
            for t in generate_cholesky_tasks(tiled, conversion="receiver")
        )
        assert sender < receiver


class TestFactorizationAccuracy:
    def test_dp_matches_dense_reference(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        assert result.factor_error(dense_cholesky(spd_matrix)) < 1e-13
        assert result.relative_error(spd_matrix) < 1e-14

    @pytest.mark.parametrize("variant,tol", [("DP/SP", 1e-5), ("DP/SP/HP", 5e-2), ("DP/HP", 5e-2)])
    def test_reduced_precision_error_bounded(self, spd_matrix, variant, tol):
        result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
        assert 0 < result.relative_error(spd_matrix) < tol

    def test_error_ordering_across_variants(self, spd_matrix):
        errors = {}
        for variant in VARIANTS:
            result = MixedPrecisionCholesky(tile_size=16, variant=variant).factorize(spd_matrix)
            errors[variant] = result.relative_error(spd_matrix)
        assert errors["DP"] < errors["DP/SP"] < errors["DP/HP"]

    def test_uneven_tile_sizes(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=24, variant="DP").factorize(spd_matrix)
        assert result.relative_error(spd_matrix) < 1e-13

    def test_single_tile_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 16))
        spd = a @ a.T + 8 * np.eye(8)
        result = MixedPrecisionCholesky(tile_size=8, variant="DP").factorize(spd)
        assert result.relative_error(spd) < 1e-13
        assert result.n_tasks == 1

    def test_result_accounting(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/HP").factorize(spd_matrix)
        assert result.total_flops == pytest.approx(sum(result.flops_by_precision.values()))
        assert result.storage_bytes < result.dense_bytes
        assert "fp16" in result.flops_by_precision
        assert result.variant == "DP/HP"

    def test_sampling_covariance(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        rng = np.random.default_rng(3)
        samples = result.sample(rng, size=4000)
        empirical = samples.T @ samples / samples.shape[0]
        rel = np.linalg.norm(empirical - spd_matrix) / np.linalg.norm(spd_matrix)
        assert rel < 0.15

    def test_jitter_handles_near_singular(self):
        n = 32
        u = np.ones((n, 1))
        nearly_singular = u @ u.T + 1e-10 * np.eye(n)
        solver = MixedPrecisionCholesky(tile_size=8, variant="DP", jitter=1e-6)
        result = solver.factorize(nearly_singular)
        assert np.all(np.isfinite(result.lower()))

    def test_invalid_tile_size(self):
        with pytest.raises(ValueError):
            MixedPrecisionCholesky(tile_size=0)

    @pytest.mark.parametrize("n, tile_size", [(300, 24), (300, 64), (40, 64)])
    def test_dense_cholesky_is_the_dp_oracle(self, n, tile_size):
        """Ragged last tiles, several GEMM widths, a single tile."""
        cov = TestRowPanels.covariance(n, seed=n)
        result = MixedPrecisionCholesky(tile_size=tile_size, variant="DP").factorize(cov)
        assert result.factor_error(dense_cholesky(cov)) < 1e-12

    def test_only_the_lower_triangle_is_read(self, spd_matrix):
        junk = spd_matrix + np.triu(np.full_like(spd_matrix, 7.0), 1)
        solver = MixedPrecisionCholesky(tile_size=24, variant="DP/SP")
        assert np.array_equal(
            solver.factorize(junk).lower(), solver.factorize(spd_matrix).lower()
        )

    def test_factorize_in_place_overwrites_the_buffer(self, spd_matrix):
        """The buffer ends up holding the factor, which the result no longer
        references once its row panels are built."""
        work = np.tril(spd_matrix)
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize_in_place(work)
        assert np.array_equal(np.tril(work), result.lower())
        assert not any(np.shares_memory(t.data, work) for t in result.factor.tiles.values())
        with pytest.raises(ValueError, match="must be square float64"):
            MixedPrecisionCholesky(tile_size=16).factorize_in_place(work.astype(np.float32))

    def test_no_task_list_on_the_factorisation_path(self, small_ensemble, monkeypatch):
        """``factorize`` and ``repro.fit`` run with the task model disabled."""

        def disabled(*args, **kwargs):
            raise AssertionError("the factorisation built the task list")

        monkeypatch.setattr(cholesky_module, "generate_cholesky_tasks", disabled)
        monkeypatch.setattr(Task, "__init__", disabled)
        spd = TestRowPanels.covariance(100)
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/SP/HP").factorize(spd)
        assert result.n_tasks == sum(cholesky_tile_counts(7).values())
        emulator = repro.fit(
            small_ensemble, lmax=8, var_order=1, tile_size=16, rho_grid=(0.5,),
            precision_variant="DP/SP",
        )
        assert emulator.spectral_model.cholesky.factor.n == 64


@pytest.mark.parametrize("conversion", ["sender", "receiver"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tile_size", [16, 24, 64])
@pytest.mark.parametrize("n", [64, 100, 300])
def test_closed_form_accounting_is_the_task_lists_totals(n, tile_size, variant, conversion):
    """``flops_by_precision`` / ``conversions`` / ``n_tasks`` of a factorisation
    equal the sums over the task list the performance model prices."""
    spd = TestRowPanels.covariance(n)
    result = MixedPrecisionCholesky(tile_size, variant, conversion).factorize(spd)
    tasks = generate_cholesky_tasks(
        TiledSymmetricMatrix.from_dense(spd, tile_size, variant), conversion=conversion
    )
    flops = {}
    for task in tasks:
        flops[task.precision] = flops.get(task.precision, 0.0) + task.flops
    assert result.flops_by_precision == pytest.approx(flops, rel=1e-12)
    assert result.total_flops == pytest.approx(sum(flops.values()), rel=1e-12)
    assert result.conversions == sum(t.metadata.get("conversions", 0) for t in tasks)
    assert result.n_tasks == len(tasks)


class TestPackedState:
    """``state_dict`` packs the tiles per precision; ``from_state`` slices views."""

    @pytest.mark.parametrize("variant", ["DP", "DP/SP/HP"])
    @pytest.mark.parametrize("tile_size", [16, 24])  # 24 leaves a ragged last tile
    def test_round_trip_is_bit_exact(self, spd_matrix, variant, tile_size):
        result = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(spd_matrix)
        state = result.state_dict()
        restored = CholeskyResult.from_state(state)
        assert restored.factor.tiles.keys() == result.factor.tiles.keys()
        for key, tile in result.factor.tiles.items():
            other = restored.factor.tiles[key]
            assert other.precision is tile.precision
            assert other.data.dtype == tile.data.dtype
            assert np.array_equal(other.data, tile.data)
        assert np.array_equal(restored.lower(), result.lower())
        # A restored result serialises to the same state (load -> save -> load).
        again = restored.state_dict()
        assert again.keys() == state.keys()
        for key, value in state.items():
            assert np.array_equal(again[key], value) if isinstance(value, np.ndarray) else again[key] == value

    def test_state_holds_one_buffer_per_precision_in_use(self, spd_matrix):
        solver = MixedPrecisionCholesky(tile_size=16, variant="DP/SP/HP")
        state = solver.factorize(spd_matrix).state_dict()
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"tile_precision", "tiles_fp64", "tiles_fp32", "tiles_fp16"}
        assert arrays["tile_precision"].dtype == np.uint8
        assert arrays["tile_precision"].shape == (4 * 5 // 2,)
        assert sum(a.size for k, a in arrays.items() if k != "tile_precision") == 10 * 16 * 16
        dp_only = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        assert "tiles_fp32" not in dp_only.state_dict()

    def test_restored_tiles_are_views_of_the_row_panels(self, spd_matrix):
        """... and no longer of the packed buffers, which a loader can release."""
        state = MixedPrecisionCholesky(tile_size=16, variant="DP/SP").factorize(spd_matrix).state_dict()
        restored = CholeskyResult.from_state(state)
        panels = [panel for _, parts in restored.panels for _, panel in parts]
        for tile in restored.factor.tiles.values():
            assert not np.shares_memory(tile.data, state[f"tiles_{tile.precision.value}"])
            assert sum(np.shares_memory(tile.data, panel) for panel in panels) == 1

    @pytest.mark.parametrize(
        "member, corrupt, named",
        [
            ("tiles_fp64", lambda a: a[:-1], "tiles_fp64"),
            ("tiles_fp64", lambda a: np.concatenate([a, a[:3]]), "tiles_fp64"),
            ("tiles_fp32", lambda a: a.astype(np.float64), "tiles_fp32"),
            ("tiles_fp32", lambda a: a.reshape(-1, 16), "tiles_fp32"),
            ("tile_precision", lambda a: a[:-1], "tile_precision"),
            ("tile_precision", lambda a: a.astype(np.int64), "tile_precision"),
            ("tile_precision", lambda a: np.where(a == 1, 7, a).astype(np.uint8), "tile_precision"),
            # Re-labelling tiles moves their values out of a buffer's budget.
            ("tile_precision", lambda a: np.zeros_like(a), "tiles_fp64"),
        ],
    )
    def test_inconsistent_member_is_refused_by_name(self, spd_matrix, member, corrupt, named):
        state = MixedPrecisionCholesky(tile_size=16, variant="DP/SP").factorize(spd_matrix).state_dict()
        intact = state[member]
        state[member] = corrupt(intact)
        with pytest.raises(ValueError, match=f"'{named}'"):
            CholeskyResult.from_state(state)
        del state[member]
        with pytest.raises((KeyError, ValueError), match=f"'{member}'"):
            CholeskyResult.from_state(state)
        state[member] = intact
        CholeskyResult.from_state(state)

    def test_reads_the_schema_1_per_tile_layout(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP/HP").factorize(spd_matrix)
        state = {
            k: v for k, v in result.state_dict().items()
            if not k.startswith("tile")
        } | {"tile_size": 16}
        state["tiles"] = {f"{i}_{j}": t.data for (i, j), t in result.factor.tiles.items()}
        assert np.array_equal(CholeskyResult.from_state(state).lower(), result.lower())


def test_dense_assembly_matches_the_tile_by_tile_construction(spd_matrix):
    """``lower()`` (from the row panels) and ``to_dense`` (from the tiles) equal
    the assemble-then-``np.tril`` code they replaced."""
    for variant, tile_size in (("DP", 16), ("DP/SP/HP", 24)):
        tiled = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(
            spd_matrix
        ).factor
        # Put junk above the diagonal of a diagonal tile: it must be dropped.
        junk = tiled.tiles[(1, 1)].data.copy()
        junk[0, -1] = 3.0
        tiled.tiles[(1, 1)].data = junk
        assembled = np.zeros((tiled.n,) * 2)
        for (i, j), tile in tiled.tiles.items():
            rows, cols = tile.shape
            assembled[
                i * tile_size: i * tile_size + rows, j * tile_size: j * tile_size + cols
            ] = tile.as_float64()
        assert assembled[tile_size, 2 * tile_size - 1] == 3.0
        assert np.array_equal(
            tiled.to_dense(), np.tril(assembled) + np.tril(assembled, -1).T
        )
        result = CholeskyResult(
            factor=tiled, variant=variant, tile_size=tile_size, flops_by_precision={},
            total_flops=0.0, storage_bytes=0, dense_bytes=0, conversions=0, n_tasks=0,
        )
        lower = result.lower()
        assert lower.flags.c_contiguous and lower.dtype == np.float64
        assert np.array_equal(lower, np.tril(assembled))
        assert not np.signbit(lower[np.triu_indices_from(lower, 1)]).any()


class TestRowPanels:
    """``correlate`` multiplies by the factor as stored: row panels per precision."""

    @staticmethod
    def covariance(n, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2 * n))
        decay = np.exp(-np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / (n / 5))
        return x @ x.T / (2 * n) * decay + 0.5 * np.eye(n)

    @pytest.mark.parametrize("n, tile_size", [(64, 16), (200, 24), (289, 64), (30, 64)])
    def test_double_precision_draw_is_the_dense_product(self, n, tile_size):
        result = MixedPrecisionCholesky(tile_size=tile_size, variant="DP").factorize(
            self.covariance(n)
        )
        for m in (1, 7, 40):
            z = np.random.default_rng(m).standard_normal((m, n))
            assert np.max(np.abs(result.correlate(z) - z @ result.lower().T)) < 1e-12

    @pytest.mark.parametrize("variant", ["DP/SP", "DP/SP/HP", "DP/HP"])
    @pytest.mark.parametrize("n, tile_size", [(200, 24), (289, 16)])
    def test_mixed_draw_is_within_the_factors_own_error(self, variant, n, tile_size):
        """Multiplying reduced-precision tiles in float32 costs about what
        storing them in single precision did (both round at 6e-8; the draw
        rounds ``z`` and the partial sums as well), and far less than
        half-precision storage: against the dense float64 product the draw
        stays within a small multiple of the factor's distance from the
        covariance, or of float32's unit roundoff where that is larger (a
        DP/SP factor, rounded once per tile, reconstructs these matrices to
        4e-9)."""
        cov = self.covariance(n)
        result = MixedPrecisionCholesky(tile_size=tile_size, variant=variant).factorize(cov)
        z = np.random.default_rng(1).standard_normal((48, n))
        dense = z @ result.lower().T
        error = np.linalg.norm(result.correlate(z) - dense) / np.linalg.norm(dense)
        assert 0 < error < 3.0 * max(result.relative_error(cov), 2.0 ** -24)

    def test_panels_hold_the_lower_triangle_once_at_stored_width(self):
        n, tile_size = 1024, 64
        lower = np.tril(np.random.default_rng(0).standard_normal((n, n)))

        def panels_of(variant):
            tiled = TiledSymmetricMatrix.from_dense(lower, tile_size, variant)
            return CholeskyResult(
                factor=tiled, variant=variant, tile_size=tile_size, flops_by_precision={},
                total_flops=0.0, storage_bytes=0, dense_bytes=0, conversions=0, n_tasks=0,
            ).panels

        double = panels_of("DP")
        assert all(rows.stop - rows.start >= 64 for rows, _ in double)
        assert all(panel.flags.c_contiguous for _, parts in double for _, panel in parts)
        assert sum(p.nbytes for _, parts in double for _, p in parts) <= 0.55 * 8 * n * n
        mixed = panels_of("DP/SP/HP")
        dtypes = {panel.dtype for _, parts in mixed for _, panel in parts}
        assert dtypes == {np.dtype(np.float64), np.dtype(np.float32)}  # fp16 multiplies as fp32
        assert sum(p.nbytes for _, parts in mixed for _, p in parts) <= 0.35 * 8 * n * n

    def test_sample_draws_through_the_panels(self, spd_matrix):
        result = MixedPrecisionCholesky(tile_size=16, variant="DP").factorize(spd_matrix)
        z = np.random.default_rng(9).standard_normal((2, 5, 64))
        sample = result.sample(np.random.default_rng(9), size=(2, 5))
        assert np.array_equal(sample, result.correlate(z.reshape(10, 64)).reshape(2, 5, 64))
