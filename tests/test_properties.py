"""Property-based tests (hypothesis) of the core invariants.

These cover the mathematical invariants that must hold for *any* input, not
just the fixtures: SHT linearity and Parseval consistency, real-packing
orthogonality, Cholesky correctness over random SPD matrices, precision
policy totality, distributed-lag boundedness and storage monotonicity.
"""

import functools

import numpy as np
import pytest
from factor_state import packed_state  # tests/ is on sys.path (rootdir layout)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.trend import distributed_lag_series
from repro.linalg import MixedPrecisionCholesky, variant_policy
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.policies import VARIANTS
from repro.linalg.precision import Precision
from repro.linalg.tasks import Task, build_task_graph
from repro.sht import Grid, SHTPlan, transform
from repro.sht.quadrature import exponential_sine_integral
from repro.sht.realform import complex_from_real, real_from_complex
from repro.sht.spectrum import angular_power_spectrum
from repro.storage import StorageScenario, archive_bytes
from repro.systems.perf_model import band_flop_fraction

_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_PLAN = SHTPlan(lmax=6, grid=Grid.for_bandlimit(6))

#: Band-limits on both sides of the GEMM column multiple (8), one on an
#: oversampled even-nphi grid.
_BATCH_PLANS = {
    6: _PLAN,
    11: SHTPlan(lmax=11, grid=Grid(ntheta=14, nphi=24)),
    16: SHTPlan(lmax=16, grid=Grid.for_bandlimit(16)),
}
_BATCH_HEIGHTS = (
    1, 2,
    min(transform._SYNTHESIS_BLOCK, transform._ANALYSIS_BLOCK) - 1,
    max(transform._SYNTHESIS_BLOCK, transform._ANALYSIS_BLOCK) + 3,
)


@st.composite
def real_coefficients(draw):
    values = draw(
        hnp.arrays(
            np.float64,
            (36,),
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    return values


class TestSHTProperties:
    @_SETTINGS
    @given(real_coefficients(), real_coefficients(), st.floats(-5, 5), st.floats(-5, 5))
    def test_transform_linearity(self, a, b, alpha, beta):
        ca, cb = complex_from_real(a), complex_from_real(b)
        lhs = _PLAN.inverse(alpha * ca + beta * cb)
        rhs = alpha * _PLAN.inverse(ca) + beta * _PLAN.inverse(cb)
        assert np.allclose(lhs, rhs, atol=1e-8)

    @_SETTINGS
    @given(
        st.sampled_from(sorted(_BATCH_PLANS)),
        st.sampled_from(_BATCH_HEIGHTS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_slices_do_not_depend_on_the_batch_height(self, lmax, height, seed):
        """``plan.inverse(stacked)[b]`` is ``plan.inverse(stacked[b])`` bit for
        bit, and the same for ``forward`` — for a batch of one, of two, one
        short of the internal block and three past it."""
        plan = _BATCH_PLANS[lmax]
        coeffs = plan.random_coefficients(np.random.default_rng(seed), shape=(height,))
        fields = plan.inverse(coeffs)
        recovered = plan.forward(fields)
        for b in range(height):
            np.testing.assert_array_equal(fields[b], plan.inverse(coeffs[b]))
            np.testing.assert_array_equal(recovered[b], plan.forward(fields[b]))

    @_SETTINGS
    @given(real_coefficients())
    def test_roundtrip_identity(self, packed):
        coeffs = complex_from_real(packed)
        recovered = _PLAN.forward(_PLAN.inverse(coeffs))
        assert np.allclose(recovered, coeffs, atol=1e-8)

    @_SETTINGS
    @given(real_coefficients())
    def test_real_packing_is_isometric(self, packed):
        coeffs = complex_from_real(packed)
        assert np.isclose(np.linalg.norm(packed), np.linalg.norm(coeffs))
        assert np.allclose(real_from_complex(coeffs), packed, atol=1e-12)

    @_SETTINGS
    @given(real_coefficients())
    def test_power_spectrum_nonnegative_and_scales(self, packed):
        coeffs = complex_from_real(packed)
        spec = angular_power_spectrum(coeffs)
        assert np.all(spec >= 0)
        assert np.allclose(angular_power_spectrum(2.0 * coeffs), 4.0 * spec, rtol=1e-10)

    @_SETTINGS
    @given(st.integers(min_value=-200, max_value=200))
    def test_exponential_sine_integral_conjugate_symmetry(self, q):
        assert np.isclose(
            complex(exponential_sine_integral(-q)),
            np.conj(complex(exponential_sine_integral(q))),
        )


@functools.lru_cache(maxsize=None)
def _random_factor(n: int, tile_size: int, variant: str) -> CholeskyResult:
    """A random lower-triangular matrix stored as ``variant`` stores a factor,
    loaded the way an artifact is."""
    lower = np.tril(np.random.default_rng(n + tile_size).standard_normal((n, n)))
    return CholeskyResult.from_state(packed_state(lower, tile_size, variant))


class TestLinalgProperties:
    @settings(_SETTINGS, max_examples=80)
    @given(
        st.sampled_from([81, 289, 1024]),  # L = 9, 17, 32: ragged and whole panels
        st.sampled_from([16, 32, 64]),
        st.sampled_from(VARIANTS),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stacked_draw_does_not_depend_on_the_batch(
        self, n, tile_size, variant, n_batch, n_times, seed
    ):
        """Member ``b`` of a stacked draw is its batch-of-one draw, bit for bit:
        the contract ``generate_standardized_stream_multi`` builds on."""
        factor = _random_factor(n, tile_size, variant)
        z = np.random.default_rng(seed).standard_normal((n_batch, n_times, n))
        stacked = factor.correlate(z.reshape(-1, n)).reshape(z.shape)
        for b in range(n_batch):
            np.testing.assert_array_equal(stacked[b], factor.correlate(z[b]))

    @_SETTINGS
    @given(
        st.integers(min_value=6, max_value=28),
        st.integers(min_value=2, max_value=9),
        st.sampled_from(["DP", "DP/SP", "DP/HP"]),
    )
    def test_cholesky_reconstruction_over_random_spd(self, n, tile, variant):
        rng = np.random.default_rng(n * 131 + tile)
        x = rng.standard_normal((n, n + 4))
        spd = x @ x.T / (n + 4) + np.eye(n)
        result = MixedPrecisionCholesky(tile_size=tile, variant=variant).factorize(spd)
        tol = 1e-12 if variant == "DP" else 2e-2
        assert result.relative_error(spd) < tol
        lower = result.lower()
        assert np.allclose(lower, np.tril(lower))
        assert np.all(np.diag(lower) > 0)

    @_SETTINGS
    @given(st.integers(min_value=1, max_value=40), st.sampled_from(["DP", "DP/SP", "DP/SP/HP", "DP/HP"]))
    def test_policy_total_and_diagonal_double(self, n_tiles, variant):
        policy = variant_policy(variant)
        pm = policy.precision_map(n_tiles)
        assert len(pm) == n_tiles * (n_tiles + 1) // 2
        assert all(pm[(i, i)] is Precision.DOUBLE for i in range(n_tiles))

    @_SETTINGS
    @given(st.integers(min_value=1, max_value=200), st.floats(0, 1))
    def test_band_flop_fraction_bounds(self, n_tiles, frac):
        value = band_flop_fraction(n_tiles, frac * n_tiles)
        assert 0.0 <= value <= 1.0 + 1e-12


def _brute_force_edges(tasks: list) -> set:
    """``(i, j)``, ``i < j``, wherever task ``j`` must follow task ``i``: it
    reads or writes what ``i`` last wrote before it (RAW / WAW), or writes
    what ``i`` read since that tile's last write (WAR)."""
    edges = set()
    for j, later in enumerate(tasks):
        for ref in (*later.reads, *later.writes):
            writers = [i for i in range(j) if ref in tasks[i].writes]
            if writers:
                edges.add((writers[-1], j))
            if ref in later.writes:
                since = writers[-1] + 1 if writers else 0
                edges.update((i, j) for i in range(since, j) if ref in tasks[i].reads)
    return edges


class TestTaskGraphProperties:
    @_SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=5), max_size=3),
                st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=2),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_task_graph_points_backward_and_is_complete(self, accesses):
        tasks = [
            Task(
                name=f"t{i}",
                kind="W",
                reads=tuple(("x", k) for k in reads),
                writes=tuple(("x", k) for k in writes),
                flops=1.0,
            )
            for i, (reads, writes) in enumerate(accesses)
        ]
        graph = build_task_graph(tasks)
        assert graph.n_tasks == len(tasks)
        for j, preds in enumerate(graph.predecessors):
            assert preds == sorted(set(preds)) and all(i < j for i in preds)
        edges = {(i, j) for j, preds in enumerate(graph.predecessors) for i in preds}
        assert edges == _brute_force_edges(tasks)
        assert graph.n_edges == len(edges)


class TestModelProperties:
    @_SETTINGS
    @given(
        hnp.arrays(np.float64, st.integers(2, 60), elements=st.floats(0, 10)),
        st.floats(0.0, 0.99),
    )
    def test_distributed_lag_stays_within_forcing_range(self, forcing, rho):
        d = distributed_lag_series(forcing, rho)
        assert d.shape == forcing.shape
        assert np.all(d >= forcing.min() - 1e-9)
        assert np.all(d <= forcing.max() + 1e-9)

    @_SETTINGS
    @given(st.integers(1, 50), st.integers(1, 20), st.integers(1, 4))
    def test_archive_bytes_monotone(self, years, steps, members):
        grid = Grid(ntheta=11, nphi=20)
        small = StorageScenario("s", grid, years, steps, members)
        bigger = StorageScenario("b", grid, years + 1, steps, members)
        assert archive_bytes(bigger) > archive_bytes(small)
