"""Unit tests for videos and catalogs."""

import numpy as np
import pytest

from repro.units import minutes
from repro.workload.catalog import Video, VideoCatalog, make_catalog


class TestVideo:
    def test_size_is_length_times_rate(self):
        v = Video(video_id=0, length=600.0, view_bandwidth=3.0)
        assert v.size == pytest.approx(1800.0)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            Video(video_id=0, length=0.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Video(video_id=0, length=10.0, view_bandwidth=-1.0)

    def test_frozen(self):
        v = Video(video_id=0, length=10.0)
        with pytest.raises(Exception):
            v.length = 20.0


class TestCatalog:
    def test_indexing_and_iteration(self):
        videos = [Video(i, length=10.0 + i) for i in range(3)]
        cat = VideoCatalog(videos=tuple(videos))
        assert len(cat) == 3
        assert cat[1].length == 11.0
        assert [v.video_id for v in cat] == [0, 1, 2]

    def test_sizes_and_lengths_vectors(self):
        videos = [Video(i, length=100.0, view_bandwidth=2.0) for i in range(4)]
        cat = VideoCatalog(videos=tuple(videos))
        assert np.allclose(cat.sizes, 200.0)
        assert np.allclose(cat.lengths, 100.0)
        assert cat.mean_size == pytest.approx(200.0)
        assert cat.total_size() == pytest.approx(800.0)


class TestMakeCatalog:
    def test_lengths_in_range(self, rng):
        cat = make_catalog(200, (minutes(10), minutes(30)), rng)
        assert len(cat) == 200
        assert (cat.lengths >= minutes(10)).all()
        assert (cat.lengths <= minutes(30)).all()

    def test_ids_are_rank_order(self, rng):
        cat = make_catalog(10, (10.0, 20.0), rng)
        assert [v.video_id for v in cat] == list(range(10))

    def test_view_bandwidth_propagates(self, rng):
        cat = make_catalog(5, (10.0, 20.0), rng, view_bandwidth=7.0)
        assert all(v.view_bandwidth == 7.0 for v in cat)
        assert np.allclose(cat.sizes, cat.lengths * 7.0)

    def test_deterministic_for_same_rng_state(self):
        a = make_catalog(20, (10.0, 20.0), np.random.default_rng(5))
        b = make_catalog(20, (10.0, 20.0), np.random.default_rng(5))
        assert np.array_equal(a.lengths, b.lengths)

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ValueError):
            make_catalog(0, (10.0, 20.0), rng)
        with pytest.raises(ValueError):
            make_catalog(5, (20.0, 10.0), rng)
        with pytest.raises(ValueError):
            make_catalog(5, (0.0, 10.0), rng)
