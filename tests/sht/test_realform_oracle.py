"""The per-coefficient loops ``realform`` used to run, kept as its oracle.

The vectorised packing applies the same elementwise operations to the
same dtypes, so it must reproduce these loops bit for bit — signed zeros
included, which ``==`` alone would not see.
"""

import numpy as np
import pytest

from repro.sht.realform import complex_from_real, real_from_complex
from repro.sht.transform import coeff_index

_SQRT2 = np.sqrt(2.0)


def real_from_complex_loops(coeffs: np.ndarray) -> np.ndarray:
    lmax = int(round(np.sqrt(coeffs.shape[-1])))
    out = np.empty(coeffs.shape[:-1] + (lmax * lmax,), dtype=np.float64)
    for ell in range(lmax):
        out[..., coeff_index(ell, 0)] = coeffs[..., coeff_index(ell, 0)].real
        for m in range(1, ell + 1):
            c = coeffs[..., coeff_index(ell, m)]
            out[..., coeff_index(ell, m)] = _SQRT2 * c.real
            out[..., coeff_index(ell, -m)] = _SQRT2 * c.imag
    return out


def complex_from_real_loops(real_coeffs: np.ndarray) -> np.ndarray:
    lmax = int(round(np.sqrt(real_coeffs.shape[-1])))
    out = np.zeros(real_coeffs.shape[:-1] + (lmax * lmax,), dtype=np.complex128)
    for ell in range(lmax):
        out[..., coeff_index(ell, 0)] = real_coeffs[..., coeff_index(ell, 0)]
        for m in range(1, ell + 1):
            re = real_coeffs[..., coeff_index(ell, m)] / _SQRT2
            im = real_coeffs[..., coeff_index(ell, -m)] / _SQRT2
            value = re + 1j * im
            out[..., coeff_index(ell, m)] = value
            out[..., coeff_index(ell, -m)] = ((-1) ** m) * np.conj(value)
    return out


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    parts = (lambda a: (a.real, a.imag)) if got.dtype.kind == "c" else (lambda a: (a,))
    for g, e in zip(parts(got), parts(expected)):
        assert np.array_equal(np.signbit(g), np.signbit(e))


def salted(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sprinkle ``+0.0`` and ``-0.0`` over a real array."""
    values = values.copy()
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    return values


@pytest.mark.parametrize("lmax", [1, 2, 8, 33])
@pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
class TestVectorisedPackingMatchesLoops:
    def test_complex_from_real(self, lmax, lead):
        rng = np.random.default_rng(lmax)
        packed = salted(rng.standard_normal(lead + (lmax * lmax,)), rng)
        assert_same_bits(complex_from_real(packed), complex_from_real_loops(packed))

    def test_real_from_complex(self, lmax, lead):
        rng = np.random.default_rng(100 + lmax)
        shape = lead + (lmax * lmax,)
        coeffs = salted(rng.standard_normal(shape), rng) + 1j * salted(
            rng.standard_normal(shape), rng
        )
        assert_same_bits(real_from_complex(coeffs), real_from_complex_loops(coeffs))


def test_packing_accepts_non_contiguous_and_integer_input():
    wide = np.random.default_rng(0).standard_normal((4, 2 * 9))
    assert_same_bits(complex_from_real(wide[:, ::2]), complex_from_real_loops(wide[:, ::2]))
    whole = np.arange(16)
    assert_same_bits(
        complex_from_real(whole), complex_from_real_loops(whole.astype(np.float64))
    )
