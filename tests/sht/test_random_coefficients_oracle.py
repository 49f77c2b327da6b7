"""The per-coefficient draw loop ``SHTPlan.random_coefficients`` used to run.

Kept as the oracle of the single-draw implementation: numpy fills an array
draw sequentially, so one ``standard_normal((n_draws,) + shape)`` hands out
the values the loop's ``n_draws`` requests of ``shape`` did, and the same
elementwise arithmetic must reproduce the loop's coefficients exactly.
The benchmark inputs (``Era5LikeGenerator``) are drawn through it, so a
moved bit here moves every workload's ``input_digest``.
"""

import hashlib

import numpy as np
import pytest

from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.sht import Grid, get_plan
from repro.sht.transform import coeff_index


def random_coefficients_loops(plan, rng, power=None, real_field=True, shape=()):
    out = np.zeros(shape + (plan.n_coeffs,), dtype=np.complex128)
    for ell in range(plan.lmax):
        scale = 1.0 if power is None else np.sqrt(max(power[ell], 0.0))
        out[..., coeff_index(ell, 0)] = rng.standard_normal(shape) * scale
        for m in range(1, ell + 1):
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            val = (re + 1j * im) / np.sqrt(2.0) * scale
            out[..., coeff_index(ell, m)] = val
            if real_field:
                out[..., coeff_index(ell, -m)] = ((-1) ** m) * np.conj(val)
            else:
                re2 = rng.standard_normal(shape)
                im2 = rng.standard_normal(shape)
                out[..., coeff_index(ell, -m)] = (re2 + 1j * im2) / np.sqrt(2.0) * scale
    return out


@pytest.mark.parametrize("lmax", [1, 2, 8, 33])
@pytest.mark.parametrize("shape", [(), (3,), (2, 5)])
@pytest.mark.parametrize("real_field", [True, False])
@pytest.mark.parametrize("with_power", [False, True])
def test_one_draw_equals_the_loop(lmax, shape, real_field, with_power):
    plan = get_plan("fast", lmax, Grid.for_bandlimit(lmax))
    power = np.linspace(-0.5, 3.0, lmax) if with_power else None  # clipped below 0
    got_rng, loop_rng = np.random.default_rng(lmax), np.random.default_rng(lmax)
    got = plan.random_coefficients(got_rng, power=power, real_field=real_field, shape=shape)
    expected = random_coefficients_loops(plan, loop_rng, power, real_field, shape)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    # Both consumed the same stretch of the stream.
    assert got_rng.standard_normal() == loop_rng.standard_normal()


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "dd04125ab450d35e"),
        (7, "af4f2ea821604b8a"),
    ],
)
def test_era5_like_ensemble_bytes_are_pinned(seed, digest):
    """The generated training data, byte for byte, as the loop produced it."""
    config = Era5LikeConfig(
        lmax=8, n_years=2, n_ensemble=2, steps_per_year=12, forcing_growth=1.0
    )
    data = Era5LikeGenerator(config, seed=seed).generate().data
    assert hashlib.sha256(data.tobytes()).hexdigest()[:16] == digest
