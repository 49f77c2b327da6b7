"""The generation year loop: its spans and what it allocates.

Structure only, no timing: every step of a model year (draw, correlate,
VAR, inverse SHT, nugget, restore) runs under its own span, a direct
child of the campaign block or serving flight that asked for the year.
The allocation guard streams a ``B = 2``, ``L = 8`` record year by year
under ``tracemalloc`` and bounds the peak of each year in output-years,
the bytes of one yielded ``(B, steps_per_year, ntheta, nphi)`` year.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.generator import _member_rngs
from repro.data import Era5LikeConfig, Era5LikeGenerator
from repro.scenarios import resolve_scenario

ARTIFACT = Path(__file__).parents[1] / "api" / "data" / "default_L8_dp.npz"

GENERATION_SPANS = {
    "generate.draw", "generate.correlate", "generate.var", "sht.inverse",
    "generate.nugget", "generate.restore",
}

#: Peak traced bytes of one streamed year, in output-years, counted from
#: before the stream exists: the yielded year (1), the inverse SHT's
#: colatitude planes (1.9 at L = 8, where 9 colatitudes pad to 16), the
#: scratch normals and nugget (1) and the correlated innovations, which
#: the VAR overwrites with the series (0.5).  Measured 4.6 on every year;
#: with the restore's two fresh full-size temporaries and the stream
#: holding its last year it was 8.0.
MAX_OUTPUT_YEARS = 5


def _children(records: list[dict], parent: str) -> set[str]:
    parents = {r["span_id"] for r in records if r["name"] == parent}
    return {r["name"] for r in records if r["parent_id"] in parents}


def test_campaign_and_serving_trace_every_step_of_a_year(tmp_path):
    with repro.obs.tracing():
        repro.run_campaign(
            ARTIFACT, ["ssp-low"], n_realizations=2, n_times=24, seed=3,
            batch_size=2, max_workers=1, collect="none", store=tmp_path / "store",
        )
        repro.serve(ARTIFACT, seed=3).get(repro.FieldRequest("ssp-low", realization=1))
        records = repro.obs.trace_records()
    repro.obs.clear_trace()
    assert GENERATION_SPANS <= _children(records, "campaign.batch")
    assert GENERATION_SPANS <= _children(records, "serve.flight")


@pytest.fixture(scope="module")
def year_emulator():
    """A default-config L = 8 fit with 96 steps a year."""
    config = Era5LikeConfig(lmax=8, n_years=3, steps_per_year=96, n_ensemble=2)
    return repro.fit(Era5LikeGenerator(config, seed=4).generate(), lmax=8)


def test_a_streamed_year_allocates_a_bounded_amount_that_does_not_grow(year_emulator):
    generator = year_emulator.generator()
    spy, grid = generator.steps_per_year, generator.grid
    output_year = 2 * spy * grid.ntheta * grid.nphi * np.dtype(np.float64).itemsize
    n_years = 8
    forcing = resolve_scenario("ssp-high").annual_forcing(n_years)
    peaks = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stream = generator.generate_stream_multi(
            _member_rngs(5, range(2)), n_years * spy, forcing
        )
        for _ in range(n_years):
            tracemalloc.reset_peak()
            chunk = next(stream)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / output_year)
            del chunk
    finally:
        tracemalloc.stop()
    assert max(peaks) <= MAX_OUTPUT_YEARS, peaks
    # Year 0 also builds the trend's rho groups; after it, every year costs the same.
    assert max(peaks[1:]) - peaks[1] < 0.05, peaks


def test_a_year_shorter_than_the_row_floor_is_not_padded_by_a_copy(monkeypatch):
    """``B = 1``, one year of steps: the normals stack is under the factor multiply's
    32-row floor, and the year loop's zero-padded scratch hands it the floor's
    height, so ``correlate`` concatenates nothing."""
    from repro.linalg.cholesky import _ROW_FLOOR

    generator = repro.load(ARTIFACT).generator()
    assert generator.steps_per_year < _ROW_FLOOR
    callers = []
    concatenate = np.concatenate

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", spy)
    forcing = resolve_scenario("ssp-high").annual_forcing(2)
    stream = generator.generate_stream_multi(
        _member_rngs(5, range(1)), 2 * generator.steps_per_year, forcing
    )
    for _ in range(2):
        next(stream)
    assert "_draw_year" in callers  # the spy sees the loop's own concatenate
    assert "correlate" not in callers
