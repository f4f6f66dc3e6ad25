"""Unit tests for unit conversions."""

import pytest

from repro import units


class TestConversions:
    def test_gb_roundtrip(self):
        assert units.gb_to_mb(1.0) == 8000.0
        assert units.mb_to_gb(units.gb_to_mb(12.5)) == pytest.approx(12.5)

    def test_time_helpers(self):
        assert units.minutes(10) == 600.0
        assert units.hours(2) == 7200.0

    def test_paper_constants(self):
        assert units.DEFAULT_VIEW_BANDWIDTH == 3.0
        assert units.DEFAULT_CLIENT_RECEIVE_BANDWIDTH == 30.0

    def test_feature_film_size(self):
        """A 2 h movie at 3 Mb/s is 2.7 GB — the figure the disk
        capacities in Figure 3 are sized around."""
        size_mb = units.hours(2) * units.DEFAULT_VIEW_BANDWIDTH
        assert units.mb_to_gb(size_mb) == pytest.approx(2.7)
