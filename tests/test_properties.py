"""Property-based tests (hypothesis) of the core invariants.

These cover the mathematical invariants that must hold for *any* input, not
just the fixtures: SHT linearity and Parseval consistency, real-packing
orthogonality, Cholesky correctness over random SPD matrices, precision
policy totality, distributed-lag boundedness, and the one draw schedule: a field's bits never depend on how it was asked for.
"""

import functools
import tempfile

import numpy as np
import pytest
from factor_state import packed_state  # tests/ is on sys.path (rootdir layout)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.core.trend import distributed_lag_series
from repro.linalg import MixedPrecisionCholesky, tile_codes
from repro.linalg.cholesky import CholeskyResult
from repro.linalg.policies import VARIANTS
from repro.linalg.precision import _PRECISIONS, Precision
from repro.scenarios import resolve_scenario
from repro.sht import Grid, SHTPlan, transform
from repro.sht.quadrature import _exponential_sine_integral
from repro.sht.realform import complex_from_real, real_from_complex
from repro.sht.spectrum import angular_power_spectrum

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
            complex(_exponential_sine_integral(-q)),
            np.conj(complex(_exponential_sine_integral(q))),
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
        codes = tile_codes(variant, n_tiles)
        assert codes.shape == (n_tiles * (n_tiles + 1) // 2,) and codes.dtype == np.uint8
        diagonal = np.arange(n_tiles) * (np.arange(n_tiles) + 3) // 2  # (i, i), row-major
        assert all(_PRECISIONS[c] is Precision.DOUBLE for c in codes[diagonal])


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


def _campaign_fields(emulator, n_realizations, n_times, seed, batch_size,
                     include_nugget, store=None):
    manifest = repro.run_campaign(
        emulator, ["ssp-high"], n_realizations, n_times=n_times, seed=seed,
        batch_size=batch_size, include_nugget=include_nugget, collect="fields",
        store=store,
    )
    return {run.realization: run.collected for run in manifest.runs}


class TestDrawScheduleProperties:
    """Member ``r`` under seed ``s`` is one field, however it is asked for."""

    @_SETTINGS
    @given(
        n_times=st.integers(1, 60),
        realizations=st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
        batch_size=st.integers(1, 4),
        include_nugget=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_member_r_is_one_field_whichever_way_it_is_asked_for(
        self, fitted_emulator, n_times, realizations, batch_size, include_nugget, seed
    ):
        emulator = fitted_emulator
        spy = emulator.training_summary.steps_per_year
        n_years = -(-n_times // spy)
        n_members = max(realizations) + 1
        common = dict(annual_forcing="ssp-high", rng=seed, include_nugget=include_nugget)
        reference = emulator.emulate(n_members, n_times=n_times, **common).data
        assert reference.shape[:2] == (n_members, n_times)

        streamed = np.concatenate(
            [c.data for c in emulator.emulate_stream(n_members, n_times=n_times, **common)], axis=1
        )
        longer = emulator.emulate(n_members, n_times=n_years * spy + spy, **common).data
        # Batch composition: the requested members alone, in request order.
        members = emulator.generator().generate_stream_multi(
            [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
             for r in realizations],
            n_times, resolve_scenario("ssp-high").annual_forcing(n_years),
            include_nugget=include_nugget,
        )
        subset = np.concatenate([c.data for c in members], axis=1)
        service = repro.serve(emulator, seed=seed)
        campaign = _campaign_fields(emulator, n_members, n_times, seed, batch_size, include_nugget)
        with tempfile.TemporaryDirectory() as root:
            stored = _campaign_fields(
                emulator, n_members, n_years * spy, seed, batch_size, include_nugget, store=root
            )
        for i, r in enumerate(realizations):
            expected = reference[r]
            served = service.get(repro.FieldRequest(
                "ssp-high", realization=r, year_start=0, year_stop=n_years,
                include_nugget=include_nugget,
            ))
            assert np.array_equal(streamed[r], expected)
            assert np.array_equal(longer[r, :n_times], expected)  # a prefix
            assert np.array_equal(subset[i], expected)
            assert np.array_equal(served[:n_times], expected)
            assert np.array_equal(campaign[r], expected)
            assert np.array_equal(stored[r][:n_times], expected)

    def test_requests_that_used_to_differ_now_agree_or_are_refused(self, fitted_emulator):
        """Each pair of requests that used to differ by 10-14 K."""
        emulator = fitted_emulator
        spy = emulator.training_summary.steps_per_year
        # emulate against the year stream: one field.
        whole = emulator.emulate(1, n_times=2 * spy, rng=3).data
        years = [c.data for c in emulator.emulate_stream(1, n_times=2 * spy, rng=3)]
        assert np.array_equal(np.concatenate(years, axis=1), whole)
        # A chunk_size other than one year: refused.
        with pytest.raises(ValueError, match="chunk_size"):
            emulator.emulate_stream(1, n_times=2 * spy, rng=3, chunk_size=5)
        # Member 1 against spawn key (1,): one field under an int seed; a
        # shared Generator is refused.
        member_1 = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1,)))
        assert np.array_equal(
            emulator.emulate(2, n_times=2 * spy, rng=3).data[1],
            emulator.emulate(1, n_times=2 * spy, rng=member_1).data[0],
        )
        with pytest.raises(ValueError, match="int seed"):
            emulator.emulate(2, n_times=2 * spy, rng=np.random.default_rng(3))
        # A campaign's chunk_size: gone.
        with pytest.raises(TypeError, match="chunk_size"):
            repro.run_campaign(emulator, ["ssp-high"], 1, n_times=2 * spy, chunk_size=5)
