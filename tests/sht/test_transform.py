"""Tests of the fast spherical harmonic transform (Eqs. 4-8)."""

import numpy as np
import pytest

from reference_transform import (  # tests/sht is on sys.path (rootdir layout)
    coeff_lm,
    colatitude_fourier_reference,
    colatitude_synthesis_reference,
    samples_from_stage,
    sht_forward,
    sht_inverse,
    synthesis_from_fourier_reference,
    wigner_contraction_forward_reference,
    wigner_contraction_inverse_reference,
)
from direct_transform import direct_forward, direct_inverse, legendre_normalized
from real_packing import real_from_complex  # tests/ is on sys.path (rootdir layout)
from repro.sht import Grid, SHTPlan, get_plan
from repro.sht.realform import complex_from_real
from repro.sht.transform import coeff_index, degrees_and_orders, _num_coeffs


class TestCoefficientIndexing:
    def test_num_coeffs(self):
        assert _num_coeffs(1) == 1
        assert _num_coeffs(8) == 64
        assert _num_coeffs(720) == 518_400

    def test_index_roundtrip(self):
        for ell in range(6):
            for m in range(-ell, ell + 1):
                assert coeff_lm(coeff_index(ell, m)) == (ell, m)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            coeff_index(2, 3)

    def test_degrees_and_orders(self):
        ells, ms = degrees_and_orders(3)
        assert len(ells) == 9
        assert ells[0] == 0 and ms[0] == 0
        assert ells[-1] == 2 and ms[-1] == 2

    def test_coeff_lm_exact_near_large_perfect_squares(self):
        """Regression: float sqrt rounds up near perfect squares.

        ``np.sqrt((2**27)**2 - 1)`` rounds to exactly ``2**27``, so the
        old float-based ``coeff_lm`` returned the invalid pair
        ``(134217728, -134217729)`` with ``m < -l``.  The integer-sqrt
        path must be exact at every boundary index.
        """
        for ell in (2**26, 2**27, 10**8, 2**31):
            last_of_previous = ell * ell - 1          # (l-1, l-1)
            assert coeff_lm(last_of_previous) == (ell - 1, ell - 1)
            assert coeff_lm(ell * ell) == (ell, -ell)  # first of degree l
        # Every returned pair must satisfy |m| <= l.
        for index in (0, 1, 2, 3, (2**27) ** 2 - 1, (2**27) ** 2):
            ell, m = coeff_lm(index)
            assert abs(m) <= ell
            assert coeff_index(ell, m) == index

    def test_degrees_and_orders_is_exact_and_matches_coeff_lm(self):
        """The array path uses integer arithmetic only — exact everywhere."""
        for lmax in (1, 2, 7, 48):
            ells, ms = degrees_and_orders(lmax)
            assert np.all(np.abs(ms) <= ells)
            for index in (0, lmax * lmax - 1, lmax * (lmax - 1)):
                assert (ells[index], ms[index]) == coeff_lm(index)
            np.testing.assert_array_equal(ells * ells + ells + ms,
                                          np.arange(lmax * lmax))

    def test_coeff_lm_rejects_negative(self):
        with pytest.raises(ValueError):
            coeff_lm(-1)

    def test_bandlimit_from_coeff_count(self):
        """The shared exact inverse of _num_coeffs, used at every
        band-limit recovery site (realform, direct, spectrum) instead
        of a rounded float sqrt."""
        from repro.sht.realform import complex_from_real
        from repro.sht.spectrum import angular_power_spectrum
        from repro.sht.transform import bandlimit_from_coeff_count

        for lmax in (1, 8, 2**27):
            assert bandlimit_from_coeff_count(_num_coeffs(lmax)) == lmax
        for bad in (0, -4, 5, 63, (2**27) ** 2 - 1):
            with pytest.raises(ValueError):
                bandlimit_from_coeff_count(bad)
        # The consumers now reject malformed vectors instead of
        # silently truncating to round(sqrt(n))**2 entries.
        with pytest.raises(ValueError, match="perfect square"):
            complex_from_real(np.zeros(5))
        with pytest.raises(ValueError, match="perfect square"):
            angular_power_spectrum(np.zeros(63, dtype=complex))


class TestPlanValidation:
    def test_rejects_too_small_grid(self):
        with pytest.raises(ValueError):
            SHTPlan(lmax=8, grid=Grid(ntheta=6, nphi=15))
        with pytest.raises(ValueError):
            SHTPlan(lmax=8, grid=Grid(ntheta=9, nphi=10))

    def test_plan_sizes(self, small_plan, small_lmax):
        assert small_plan.n_coeffs == small_lmax ** 2
        assert len(small_plan._syn_ops) == len(small_plan._ana_ops) == small_lmax

    @pytest.mark.parametrize("lmax", [8, 11])
    def test_one_real_operator_pair_per_nonnegative_order(self, lmax):
        """Orders m >= 0 only, float64, degrees by colatitudes — and no Wigner tables kept."""
        plan = SHTPlan(lmax=lmax, grid=Grid.for_bandlimit(lmax))
        ntheta = plan.grid.ntheta
        width = -(-ntheta // 8) * 8  # GEMM column counts are multiples of 8
        for m, (syn, ana) in enumerate(zip(plan._syn_ops, plan._ana_ops)):
            assert syn.dtype == ana.dtype == np.float64
            block = -(-(lmax - m) // 8) * 8
            assert syn.shape == (block, width) and ana.shape == (width, block)
            # Zero beyond the L - m degrees and the ntheta colatitudes, and
            # exactly zero at both poles in an odd order.
            assert not syn[lmax - m:].any() and not syn[:, ntheta:].any()
            assert not ana[:, lmax - m:].any() and not ana[ntheta:].any()
            if m % 2:
                assert not syn[:, [0, ntheta - 1]].any() and not ana[[0, ntheta - 1]].any()
        arrays = [
            array for value in vars(plan).values()
            for array in (value if isinstance(value, list) else [value])
            if isinstance(array, np.ndarray)
        ]
        # The longitude stage's Fourier pair (on the GEMM side at these sizes).
        nphi = plan.grid.nphi
        assert plan._lon_syn.shape == (2 * lmax, nphi) and plan._lon_ana.shape == (nphi, 2 * lmax)
        # Two operators per order, the Fourier pair, and O(L^2) index maps:
        # nothing of the size of the (2l+1)^2 Wigner-d tables survives __post_init__.
        operators = sum(op.nbytes for op in plan._syn_ops + plan._ana_ops)
        assert operators <= 2 * 8 * width * sum(-(-(lmax - m) // 8) * 8 for m in range(lmax))
        operators += plan._lon_syn.nbytes + plan._lon_ana.nbytes
        assert plan._lon_syn.nbytes + plan._lon_ana.nbytes == 2 * 2 * lmax * nphi * 8
        assert sum(a.nbytes for a in arrays) - operators <= 8 * 8 * width ** 2
        assert all(a.dtype != np.complex128 for a in arrays)

    def test_build_peak_stays_near_the_operators(self):
        """At L = 64 the build's traced peak is the operators plus each
        order's degrees ``l >= m`` of the weighted Wigner-d table (~L^3 / 2
        values): about 1.53 x the operator bytes.  The whole ``(L, L, L)``
        table kept beside them reads about 2 x."""
        import tracemalloc

        lmax = 64
        grid = Grid.for_bandlimit(lmax)
        SHTPlan(lmax=8, grid=Grid.for_bandlimit(8))  # imports and scipy's first-call set-up
        tracemalloc.start()
        try:
            plan = SHTPlan(lmax=lmax, grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        operators = sum(op.nbytes for op in plan._syn_ops + plan._ana_ops)
        assert peak <= 1.6 * operators

    def test_contraction_flops_count_the_executed_orders(self):
        """One complex multiply-add = 2: order m >= 0 multiplies L - m degrees
        against the grid's ntheta colatitudes (L + 1 when not given)."""
        from repro.linalg.flops import sht_contraction_flops

        for lmax in (1, 8, 11, 128):
            for ntheta in (lmax + 1, 2 * lmax + 3):
                macs = sum((lmax - m) * ntheta for m in range(lmax))
                assert sht_contraction_flops(lmax, 3, ntheta) == 2.0 * 3 * macs
            assert sht_contraction_flops(lmax, 3) == sht_contraction_flops(lmax, 3, lmax + 1)
        # A quarter of the signed-order complex contraction it replaces.
        assert sht_contraction_flops(128) < 0.26 * 2.0 * (2 * 128 - 1) * 128 ** 2

    def test_contraction_spans_report_the_grid_s_colatitudes(self):
        """The spans count the GEMM the plan runs on *its* grid."""
        from repro.linalg.flops import sht_contraction_flops
        from repro.obs import clear_trace, trace_records, tracing

        lmax, grid = 6, Grid(ntheta=15, nphi=24)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(np.random.default_rng(0), shape=(3,))
        clear_trace()
        with tracing():
            plan.forward(plan.inverse(coeffs))
        flops = {
            record["name"]: record["attrs"]["flops"] for record in trace_records()
            if record["name"].endswith(".contraction")
        }
        clear_trace()
        assert flops == dict.fromkeys(
            ("sht.inverse.contraction", "sht.forward.contraction"),
            sht_contraction_flops(lmax, 3, grid.ntheta),
        )

    def test_shape_mismatch_raises(self, small_plan):
        with pytest.raises(ValueError):
            small_plan.forward(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            small_plan.inverse(np.zeros(5, dtype=complex))


class TestRoundTrip:
    def test_roundtrip_random_real_field(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng)
        field = small_plan.inverse(coeffs)
        recovered = small_plan.forward(field)
        assert np.max(np.abs(recovered - coeffs)) < 1e-10

    def test_roundtrip_batched(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng, shape=(3, 2))
        fields = small_plan.inverse(coeffs)
        assert fields.shape == (3, 2) + small_plan.grid.shape
        recovered = small_plan.forward(fields)
        assert np.max(np.abs(recovered - coeffs)) < 1e-10

    def test_real_field_synthesis_is_real(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng, real_field=True)
        field = small_plan.inverse(coeffs, real=False)
        assert np.max(np.abs(field.imag)) < 1e-10

    def test_oversampled_grid_roundtrip(self, rng):
        lmax = 6
        grid = Grid(ntheta=2 * lmax + 3, nphi=4 * lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(rng)
        assert np.max(np.abs(plan.forward(plan.inverse(coeffs)) - coeffs)) < 1e-10


GRIDS = {
    "minimal-odd-nphi": lambda lmax: Grid.for_bandlimit(lmax),
    "minimal-even-nphi": lambda lmax: Grid(ntheta=lmax + 1, nphi=2 * lmax),
    "oversampled-odd-nphi": lambda lmax: Grid(ntheta=2 * lmax + 3, nphi=4 * lmax + 1),
    "oversampled-even-nphi": lambda lmax: Grid(ntheta=2 * lmax + 2, nphi=4 * lmax),
}


@pytest.mark.parametrize("lmax", [4, 9, 16])
@pytest.mark.parametrize("grid_kind", sorted(GRIDS))
class TestRealPathAgainstDirectBackend:
    """Both directions within 1e-10 of the explicit-summation backend."""

    def test_inverse(self, lmax, grid_kind):
        grid = GRIDS[grid_kind](lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(np.random.default_rng(lmax), shape=(3,))
        direct = direct_inverse(coeffs, grid)
        assert np.max(np.abs(plan.inverse(coeffs) - direct)) < 1e-10

    def test_forward(self, lmax, grid_kind):
        grid = GRIDS[grid_kind](lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(np.random.default_rng(lmax + 100), shape=(3,))
        fields = direct_inverse(coeffs, grid)
        # The quadrature backend is exact from ntheta >= 2L; below that the
        # least-squares projection is the exact direct analysis.
        method = "quadrature" if grid.ntheta >= 2 * lmax else "lstsq"
        direct = direct_forward(fields, lmax, grid, method=method)
        assert np.max(np.abs(plan.forward(fields) - direct)) < 1e-10
        assert np.max(np.abs(plan.forward(fields) - coeffs)) < 1e-10


class TestComplexData:
    """Complex data is two real transforms; ``real=True`` is always the real part."""

    def test_real_part_of_a_non_symmetric_synthesis(self, small_plan):
        coeffs = small_plan.random_coefficients(
            np.random.default_rng(5), real_field=False, shape=(3,)
        )
        full = small_plan.inverse(coeffs, real=False)
        assert full.dtype == np.complex128 and np.abs(full.imag).max() > 0.1
        assert np.max(np.abs(small_plan.inverse(coeffs, real=True) - full.real)) < 1e-12
        direct = direct_inverse(coeffs, small_plan.grid, real=False)
        assert np.max(np.abs(full - direct)) < 1e-10

    def test_symmetric_input_is_untouched_by_the_symmetrisation(self, small_plan):
        """For a real field's coefficients g = (f + f) / 2 is f bit for bit,
        and the same g is reached from 2 f on m > 0 with m < 0 dropped."""
        coeffs = small_plan.random_coefficients(np.random.default_rng(6), shape=(2,))
        _, ms = degrees_and_orders(small_plan.lmax)
        one_sided = np.where(ms > 0, 2.0, 1.0) * coeffs
        one_sided[:, ms < 0] = 0.0
        np.testing.assert_array_equal(
            small_plan.inverse(one_sided), small_plan.inverse(coeffs)
        )

    def test_complex_field_round_trips(self, small_plan):
        coeffs = small_plan.random_coefficients(
            np.random.default_rng(7), real_field=False, shape=(2, 3)
        )
        fields = small_plan.inverse(coeffs, real=False)
        assert np.max(np.abs(small_plan.forward(fields) - coeffs)) < 1e-10
        recombined = small_plan.forward(fields.real) + 1j * small_plan.forward(fields.imag)
        np.testing.assert_array_equal(small_plan.forward(fields), recombined)


class TestAgainstDirectTransform:
    def test_inverse_matches_direct(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng)
        fast = small_plan.inverse(coeffs)
        direct = direct_inverse(coeffs, small_plan.grid)
        assert np.max(np.abs(fast - direct)) < 1e-10

    def test_forward_matches_lstsq(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng)
        field = small_plan.inverse(coeffs)
        direct = direct_forward(field, small_plan.lmax, small_plan.grid, method="lstsq")
        assert np.max(np.abs(direct - coeffs)) < 1e-9

    def test_forward_matches_quadrature_on_oversampled_grid(self, rng):
        lmax = 6
        grid = Grid(ntheta=2 * lmax + 2, nphi=2 * lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(rng)
        field = plan.inverse(coeffs)
        quad = direct_forward(field, lmax, grid, method="quadrature")
        assert np.max(np.abs(quad - coeffs)) < 1e-10


class TestAnalyticFields:
    def test_constant_field_maps_to_monopole(self, small_plan):
        field = np.full(small_plan.grid.shape, 3.0)
        coeffs = small_plan.forward(field)
        expected = 3.0 * np.sqrt(4.0 * np.pi)
        assert coeffs[coeff_index(0, 0)] == pytest.approx(expected, abs=1e-10)
        others = np.delete(coeffs, coeff_index(0, 0))
        assert np.max(np.abs(others)) < 1e-10

    def test_cos_theta_maps_to_l1_m0(self, small_plan):
        theta, _ = small_plan.grid.mesh()
        field = np.cos(theta)
        coeffs = small_plan.forward(field)
        # cos(theta) = sqrt(4 pi / 3) Y_{1,0}
        assert coeffs[coeff_index(1, 0)] == pytest.approx(np.sqrt(4 * np.pi / 3), abs=1e-10)

    def test_sectoral_harmonic(self, small_plan):
        """A pure Y_{2,2} + conjugate field analyses to those coefficients."""
        theta, phi = small_plan.grid.mesh()
        amp = 0.7
        y22 = (1.0 / 4.0) * np.sqrt(15.0 / (2 * np.pi)) * np.sin(theta) ** 2
        field = amp * y22 * np.cos(2 * phi) * 2.0
        coeffs = small_plan.forward(field)
        assert coeffs[coeff_index(2, 2)] == pytest.approx(amp, abs=1e-9)
        assert coeffs[coeff_index(2, -2)] == pytest.approx(amp, abs=1e-9)

    def test_linearity(self, small_plan, rng):
        f1 = small_plan.random_coefficients(rng)
        f2 = small_plan.random_coefficients(rng)
        a, b = 2.5, -1.25
        combined = small_plan.inverse(a * f1 + b * f2)
        separate = a * small_plan.inverse(f1) + b * small_plan.inverse(f2)
        assert np.max(np.abs(combined - separate)) < 1e-10


class TestConvenienceWrappers:
    def test_sht_inverse_rejects_non_square_coefficient_count(self, small_grid):
        """The band-limit is recovered exactly, never by float rounding."""
        with pytest.raises(ValueError, match="perfect square"):
            sht_inverse(np.zeros(5, dtype=complex), small_grid)
        with pytest.raises(ValueError, match="perfect square"):
            sht_inverse(np.zeros(63, dtype=complex), small_grid)

    def test_one_shot_roundtrip(self, rng):
        lmax = 5
        grid = Grid.for_bandlimit(lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        coeffs = plan.random_coefficients(rng)
        field = sht_inverse(coeffs, grid)
        recovered = sht_forward(field, lmax)
        assert np.max(np.abs(recovered - coeffs)) < 1e-10

    def test_random_coefficients_power(self, small_plan, rng):
        power = np.linspace(1.0, 0.1, small_plan.lmax)
        coeffs = small_plan.random_coefficients(rng, power=power, shape=(200,))
        from repro.sht.spectrum import angular_power_spectrum

        measured = angular_power_spectrum(coeffs).mean(axis=0)
        assert np.allclose(measured[1:], power[1:], rtol=0.5)


class TestBatchedInverse:
    """The GEMM-based synthesis contraction and its blocked batch path."""

    def test_contraction_matches_reference(self, small_plan, small_lmax, rng):
        """The GEMM lands on H_m(theta_i): the per-degree accumulation of
        Eq. (7) followed by the literal iFFT over the extended colatitude."""
        coeffs = small_plan.random_coefficients(rng, shape=(3, 4))
        ntheta = small_plan.grid.ntheta
        stage = small_plan.wigner_contraction_inverse(coeffs)
        assert stage.shape == (small_lmax, 2, 3, 4, 16)  # ntheta = 9, padded to 16
        fast = samples_from_stage(stage, ntheta)
        reference = colatitude_synthesis_reference(
            wigner_contraction_inverse_reference(coeffs, small_lmax), ntheta
        )[..., small_lmax - 1:]
        assert fast.shape == reference.shape == (3, 4, ntheta, small_lmax)
        assert np.max(np.abs(fast - reference)) < 1e-12
        # The sine series of an odd order vanishes at both poles, exactly.
        assert not stage[1::2, ..., [0, ntheta - 1]].any()

    @pytest.mark.parametrize("lmax", [8, 11])
    def test_synthesis_matches_reference(self, lmax):
        """The whole inverse against the literal per-degree / two-iFFT path
        (the stage array carries 7 resp. 4 zero padding columns)."""
        plan = SHTPlan(lmax=lmax, grid=Grid.for_bandlimit(lmax))
        ntheta = plan.grid.ntheta
        coeffs = plan.random_coefficients(np.random.default_rng(3), shape=(5,))
        c_reference = wigner_contraction_inverse_reference(coeffs, lmax)
        stage = plan.wigner_contraction_inverse(coeffs)
        assert stage.shape == (lmax, 2, 5, -(-ntheta // 8) * 8)
        h_reference = colatitude_synthesis_reference(c_reference, ntheta)[..., lmax - 1:]
        assert np.max(np.abs(samples_from_stage(stage, ntheta) - h_reference)) < 1e-12
        reference = synthesis_from_fourier_reference(c_reference, *plan.grid.shape)
        assert np.max(np.abs(reference.imag)) < 1e-12
        assert np.max(np.abs(plan.inverse(coeffs) - reference.real)) < 1e-12

    def test_batched_inverse_bit_identical_per_slice(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng, shape=(7,))
        batched = small_plan.inverse(coeffs)
        for b in range(coeffs.shape[0]):
            np.testing.assert_array_equal(batched[b], small_plan.inverse(coeffs[b]))

    def test_blocked_synthesis_bit_identical_to_single_pass(self, small_plan, rng):
        """Batches crossing the internal FFT block boundary are unchanged."""
        from repro.sht import transform

        coeffs = small_plan.random_coefficients(
            rng, shape=(transform._SYNTHESIS_BLOCK + 5,)
        )
        blocked = small_plan.inverse(coeffs)  # > _SYNTHESIS_BLOCK leading slices
        c = small_plan.wigner_contraction_inverse(coeffs)
        single_pass = small_plan.synthesis_from_fourier(c)
        np.testing.assert_array_equal(blocked, single_pass)

    def test_stacked_2d_batch_shape(self, small_plan, rng):
        coeffs = small_plan.random_coefficients(rng, shape=(2, 3))
        fields = small_plan.inverse(coeffs)
        assert fields.shape == (2, 3) + small_plan.grid.shape

    def test_complex_output_blocked_path(self, small_plan, rng):
        from repro.sht import transform

        coeffs = small_plan.random_coefficients(
            rng, real_field=False, shape=(transform._SYNTHESIS_BLOCK + 3,)
        )
        fields = small_plan.inverse(coeffs, real=False)
        assert fields.dtype == np.complex128
        np.testing.assert_array_equal(fields[1], small_plan.inverse(coeffs[1], real=False))


class TestBatchedForward:
    """The GEMM-based analysis contraction and its blocked batch path.

    Mirrors :class:`TestBatchedInverse`: the forward direction carries
    the same three guarantees — GEMM-vs-reference parity, per-slice
    bit-equality of batched calls, and block-boundary invariance of the
    internal FFT blocking — because `fit` relies on them for its
    ``batch_size`` bit-identity contract.
    """

    def _fields(self, plan, rng, shape):
        return plan.inverse(plan.random_coefficients(rng, shape=shape))

    def test_contraction_matches_reference(self, small_plan, rng):
        _assert_forward_stages_match_reference(small_plan, self._fields(small_plan, rng, (3, 4)))

    def test_contraction_matches_reference_at_higher_bandlimit(self, rng):
        """Parity pinned where the operators are big enough to matter."""
        lmax = 24
        plan = SHTPlan(lmax=lmax, grid=Grid.for_bandlimit(lmax))
        _assert_forward_stages_match_reference(plan, self._fields(plan, rng, (6,)))

    def test_batched_forward_bit_identical_per_slice(self, small_plan, rng):
        fields = self._fields(small_plan, rng, (7,))
        batched = small_plan.forward(fields)
        for b in range(fields.shape[0]):
            np.testing.assert_array_equal(batched[b], small_plan.forward(fields[b]))

    def test_blocked_analysis_bit_identical_to_single_pass(self, small_plan, rng):
        """Batches crossing the internal FFT block boundary are unchanged."""
        from repro.sht import transform

        fields = self._fields(small_plan, rng, (transform._ANALYSIS_BLOCK + 5,))
        blocked = small_plan.forward(fields)  # > _ANALYSIS_BLOCK leading slices
        single_pass = small_plan._analyze_block(fields, small_plan.wigner_contraction_forward)
        np.testing.assert_array_equal(blocked, single_pass)

    def test_blocked_analysis_with_ragged_final_single_slice(self, small_plan, rng):
        """A ragged final block of one slice goes through the gemv-padding guard."""
        from repro.sht import transform

        fields = self._fields(small_plan, rng, (transform._ANALYSIS_BLOCK + 1,))
        blocked = small_plan.forward(fields)
        np.testing.assert_array_equal(blocked[-1], small_plan.forward(fields[-1]))
        np.testing.assert_array_equal(
            blocked, small_plan._analyze_block(fields, small_plan.wigner_contraction_forward)
        )

    def test_stacked_2d_batch_shape(self, small_plan, rng):
        fields = self._fields(small_plan, rng, (2, 3))
        coeffs = small_plan.forward(fields)
        assert coeffs.shape == (2, 3) + (small_plan.n_coeffs,)
        np.testing.assert_array_equal(coeffs[1, 2], small_plan.forward(fields[1, 2]))

    def test_complex_input_blocked_path(self, small_plan, rng):
        from repro.sht import transform

        coeffs = small_plan.random_coefficients(
            rng, real_field=False, shape=(transform._ANALYSIS_BLOCK + 3,)
        )
        fields = small_plan.inverse(coeffs, real=False)
        recovered = small_plan.forward(fields)
        assert recovered.dtype == np.complex128
        np.testing.assert_array_equal(recovered[1], small_plan.forward(fields[1]))
        assert np.max(np.abs(recovered - coeffs)) < 1e-10

    def test_stages_compose_to_the_whole_transform_bit_for_bit(self, small_plan):
        """What the benchmark harness chains is what ``inverse`` / ``forward`` run."""
        coeffs = small_plan.random_coefficients(np.random.default_rng(8), shape=(2, 3))
        fields = small_plan.synthesis_from_fourier(small_plan.wigner_contraction_inverse(coeffs))
        np.testing.assert_array_equal(fields, small_plan.inverse(coeffs))
        back = small_plan.wigner_contraction_forward(
            small_plan.colatitude_fourier(small_plan.longitude_fourier(fields))
        )
        np.testing.assert_array_equal(back, small_plan.forward(fields))

    def test_analysis_operators_invert_the_synthesis_operators(self, small_plan):
        _assert_operators_are_mutual_inverses(small_plan)


def _assert_forward_stages_match_reference(plan, fields):
    """The FFT stage is the reorder of the longitude transform, exactly,
    and that transform the real FFT (bit for bit on the FFT side); the
    GEMM on it against Eq. (6)'s literal extension FFT followed by the
    per-degree assembly of Eq. (7)."""
    ntheta, nphi = plan.grid.shape
    g = plan.longitude_fourier(fields)
    k = plan.colatitude_fourier(g)
    assert k.shape == (plan.lmax, 2) + fields.shape[:-2] + (-(-ntheta // 8) * 8,)
    np.testing.assert_array_equal(samples_from_stage(k, ntheta), g)
    rfft = (np.fft.rfft(fields, axis=-1) / nphi)[..., :plan.lmax]
    if plan._longitude_method == "fft":
        np.testing.assert_array_equal(g, rfft)
    assert np.max(np.abs(g - rfft)) < 1e-12
    k_reference = colatitude_fourier_reference(fields, plan.lmax)
    fast = plan.wigner_contraction_forward(k)
    reference = wigner_contraction_forward_reference(k_reference, plan.lmax)
    assert fast.shape == reference.shape
    assert np.max(np.abs(fast - reference)) < 1e-12


def _assert_operators_are_mutual_inverses(plan):
    """Per order, samples of a band-limited ``H_m`` analyse back to its
    coefficients: ``S_m @ A_m = I`` on the true degrees (zero on the
    padding) — folding Eq. (8)'s integrals and the colatitude transform
    into one matrix loses nothing."""
    lmax = plan.lmax
    for m, (syn, ana) in enumerate(zip(plan._syn_ops, plan._ana_ops)):
        identity = np.zeros((syn.shape[0],) * 2)
        identity[:lmax - m, :lmax - m] = np.eye(lmax - m)
        np.testing.assert_allclose(syn @ ana, identity, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lmax", [4, 9, 16])
@pytest.mark.parametrize("grid_kind", sorted(GRIDS))
class TestOperatorsAgainstLegendre:
    """The folded operators against the three-term Legendre recursion, which
    shares nothing with the Wigner-d tables and transforms they are built from."""

    def test_synthesis_rows_are_sampled_harmonics(self, lmax, grid_kind):
        """Row ``l`` of order ``m`` is ``Y_{l,m}(theta_i, 0)``, Condon-Shortley
        phase included — no residual sign."""
        grid = GRIDS[grid_kind](lmax)
        plan = SHTPlan(lmax=lmax, grid=grid)
        pbar = legendre_normalized(lmax - 1, np.cos(grid.colatitudes))  # [l, m, i]
        for m, syn in enumerate(plan._syn_ops):
            assert np.max(np.abs(syn[:lmax - m, :grid.ntheta] - pbar[m:, m])) < 1e-12

    def test_operators_are_mutual_inverses_on_the_true_degrees(self, lmax, grid_kind):
        _assert_operators_are_mutual_inverses(SHTPlan(lmax=lmax, grid=GRIDS[grid_kind](lmax)))


class TestEdgeBandlimits:
    """``L = 1`` (``ntheta = 2``: no odd order, an empty sine transform),
    ``L = 2`` (one odd order with a single interior colatitude) and empty
    batches."""

    @pytest.mark.parametrize("lmax", [1, 2])
    @pytest.mark.parametrize("oversample", [1.0, 2.5])
    def test_smallest_bandlimits_round_trip_and_match_direct(self, lmax, oversample):
        grid = Grid.for_bandlimit(lmax, oversample=oversample)
        plan = SHTPlan(lmax=lmax, grid=grid)
        # One longitude (L = 1 on the minimal grid) has no operator to multiply by.
        assert plan._longitude_method == ("fft" if grid.nphi == 1 else "gemm")
        coeffs = plan.random_coefficients(np.random.default_rng(lmax), shape=(3,))
        fields = plan.inverse(coeffs)
        assert fields.shape == (3,) + grid.shape
        assert np.max(np.abs(fields - direct_inverse(coeffs, grid))) < 1e-13
        assert np.max(np.abs(plan.forward(fields) - coeffs)) < 1e-13
        np.testing.assert_array_equal(fields[1], plan.inverse(coeffs[1]))
        np.testing.assert_array_equal(plan.forward(fields)[1], plan.forward(fields[1]))

    @pytest.mark.parametrize("lmax", [1, 2, 8])
    def test_empty_batches(self, lmax):
        plan = SHTPlan(lmax=lmax, grid=Grid.for_bandlimit(lmax))
        fields = plan.inverse(np.zeros((0, lmax * lmax), dtype=complex))
        assert fields.shape == (0,) + plan.grid.shape and fields.dtype == np.float64
        coeffs = plan.forward(fields)
        assert coeffs.shape == (0, lmax * lmax) and coeffs.dtype == np.complex128
        assert plan.forward(np.zeros((2, 0) + plan.grid.shape)).shape == (2, 0, lmax * lmax)


class TestSliceIdentityAtBenchmarkSize:
    def test_slices_do_not_depend_on_the_batch_height_at_L128(self):
        """The per-slice bit contract where the GEMMs are big enough for BLAS
        to pick other kernels than at the property tests' ``L <= 16``: a batch
        of one, of two, one short of the block and three past it."""
        lmax = 128
        plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
        coeffs = plan.random_coefficients(np.random.default_rng(128), shape=(35,))
        fields = plan.inverse(coeffs)
        recovered = plan.forward(fields)
        assert np.max(np.abs(recovered - coeffs)) < 1e-10
        for height in (1, 2, 31):
            for start in (0, 35 - height):
                rows = slice(start, start + height)
                np.testing.assert_array_equal(plan.inverse(coeffs[rows]), fields[rows])
                np.testing.assert_array_equal(plan.forward(fields[rows]), recovered[rows])

    def test_slices_do_not_depend_on_the_batch_height_at_L64(self):
        """The same contract on the GEMM side of the longitude stage (``nphi =
        127``: ragged GEMM columns, one GEMM per slice), at heights on both
        sides of the FFT-stage blocks, and blocked equal to single-pass."""
        from repro.sht import transform

        lmax, total = 64, 35
        plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
        assert plan._longitude_method == "gemm"
        assert total > max(transform._SYNTHESIS_BLOCK, transform._ANALYSIS_BLOCK)
        coeffs = plan.random_coefficients(np.random.default_rng(64), shape=(total,))
        fields = plan.inverse(coeffs)
        recovered = plan.forward(fields)
        np.testing.assert_array_equal(
            fields, plan.synthesis_from_fourier(plan.wigner_contraction_inverse(coeffs))
        )
        np.testing.assert_array_equal(
            recovered, plan._analyze_block(fields, plan.wigner_contraction_forward)
        )
        for height in (1, 2, 31, 33, 35):
            for start in (0, total - height):
                rows = slice(start, start + height)
                np.testing.assert_array_equal(plan.inverse(coeffs[rows]), fields[rows])
                np.testing.assert_array_equal(plan.forward(fields[rows]), recovered[rows])


class TestLongitudeStage:
    """The longitude stage is a GEMM or an FFT by a fixed rule of ``(L, nphi)``;
    each side is checked at sizes the rule sends there."""

    @pytest.mark.parametrize("lmax, nphi, gemm", [
        (32, 63, True), (48, 95, True), (64, 127, True), (96, 191, True),
        (128, 255, False), (64, 128, False), (128, 256, False), (720, 1440, False),
    ])
    def test_the_rule_sends_each_grid_to_its_faster_side(self, lmax, nphi, gemm):
        from repro.sht.transform import _longitude_by_gemm

        assert _longitude_by_gemm(lmax, nphi) is gemm

    def test_the_cost_is_pocketfft_s_factor_sum(self):
        from repro.sht.transform import _fft_cost

        assert [_fft_cost(n) for n in (1, 2, 3, 4, 5)] == [0.0, 2.0, 3.0, 4.0, 5.0]
        assert _fft_cost(127) == pytest.approx(1.1 * 127)
        assert _fft_cost(255) == pytest.approx(3 + 5 + 1.1 * 17)
        assert _fft_cost(1440) == pytest.approx(5 * 2 + 2 * 3 + 5)

    @pytest.mark.parametrize("lmax, nphi, method", [
        (64, 127, "gemm"), (64, 128, "fft"), (128, 255, "fft"),
    ])
    def test_each_side_against_the_reference_and_round_trip(self, lmax, nphi, method):
        plan = get_plan("fast", lmax, Grid(ntheta=lmax + 1, nphi=nphi))
        assert plan._longitude_method == method
        coeffs = plan.random_coefficients(
            np.random.default_rng(nphi), power=np.full(lmax, 1.0 / lmax), shape=(2,)
        )
        fields = plan.inverse(coeffs)
        reference = synthesis_from_fourier_reference(
            wigner_contraction_inverse_reference(coeffs, lmax), *plan.grid.shape
        )
        assert np.max(np.abs(fields - reference.real)) < 1e-12
        _assert_forward_stages_match_reference(plan, fields)
        assert np.max(np.abs(plan.forward(fields) - coeffs)) < 1e-10

    def test_the_fft_spans_say_which_side_ran(self):
        from repro.obs import clear_trace, trace_records, tracing

        methods = {}
        for lmax in (64, 128):
            plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
            coeffs = plan.random_coefficients(np.random.default_rng(lmax), shape=(2,))
            clear_trace()
            with tracing():
                plan.forward(plan.inverse(coeffs))
            methods[lmax] = {
                record["name"]: record["attrs"]["method"] for record in trace_records()
                if record["name"].endswith(".fft")
            }
        clear_trace()
        assert methods == {
            64: dict.fromkeys(("sht.inverse.fft", "sht.forward.fft"), "gemm"),
            128: dict.fromkeys(("sht.inverse.fft", "sht.forward.fft"), "fft"),
        }


class TestRealformEntry:
    """``inverse_realform`` is ``inverse(complex_from_real(.))`` and
    ``forward_realform`` is ``real_from_complex(forward(.))`` without the detour."""

    @pytest.mark.parametrize("lmax", [1, 8, 33])
    def test_forward_same_bits_as_the_complex_path(self, lmax):
        from repro.sht import transform

        plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
        rng = np.random.default_rng(300 + lmax)
        # One slice, a batch, and more slices than one analysis block.
        for lead in ((), (1,), (4, 9), (transform._ANALYSIS_BLOCK + 5,), (0,)):
            fields = rng.standard_normal(lead + plan.grid.shape)
            series = plan.forward_realform(fields)
            expected = real_from_complex(plan.forward(fields))
            assert series.dtype == np.float64 and series.shape == expected.shape
            np.testing.assert_array_equal(series, expected)
            np.testing.assert_array_equal(np.signbit(series), np.signbit(expected))
        batch = rng.standard_normal((3,) + plan.grid.shape)
        for b in range(3):
            np.testing.assert_array_equal(
                plan.forward_realform(batch)[b], plan.forward_realform(batch[b])
            )
        with pytest.raises(ValueError, match="grid"):
            plan.forward_realform(batch[..., :-1])

    @pytest.mark.parametrize("lmax", [1, 2, 8, 33, 64])
    def test_same_bits_as_the_complex_path(self, lmax):
        plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
        rng = np.random.default_rng(lmax)
        for lead in ((), (1,), (4, 9), (37,), (0,)):  # 37 > the synthesis block
            series = rng.standard_normal(lead + (lmax * lmax,))
            fields = plan.inverse_realform(series)
            expected = plan.inverse(complex_from_real(series))
            assert fields.dtype == np.float64 and fields.shape == expected.shape
            np.testing.assert_array_equal(fields, expected)

    def test_direct_backend_and_validation(self, small_grid):
        series = np.random.default_rng(0).standard_normal((3, 64))
        plan = get_plan("fast", 8, small_grid)
        direct = direct_inverse(complex_from_real(series), small_grid)
        assert np.max(np.abs(plan.inverse_realform(series) - direct)) < 1e-10
        with pytest.raises(ValueError, match="coefficient"):
            plan.inverse_realform(series[:, :63])
