"""Tests of the measured storage reports' byte formatting."""

import pytest

from repro.storage import format_bytes


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [(12.0, "12.00 B"), (4.5e3, "4.50 KB"), (2.0e15, "2.00 PB"), (3.1e18, "3.10 EB")],
    )
    def test_formatting(self, value, expected):
        assert format_bytes(value) == expected
