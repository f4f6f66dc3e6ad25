"""Unit tests for request traces."""

import numpy as np
import pytest

from repro.workload.trace import RequestSpec, Trace, generate_trace
from repro.workload.zipf import ZipfPopularity


class TestRequestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestSpec(-1.0, 0)
        with pytest.raises(ValueError):
            RequestSpec(1.0, -1)


class TestTrace:
    def test_sorted_on_construction(self):
        t = Trace([RequestSpec(5.0, 1), RequestSpec(1.0, 2), RequestSpec(3.0, 3)])
        assert [r.time for r in t] == [1.0, 3.0, 5.0]

    def test_len_getitem_duration(self):
        t = Trace([RequestSpec(1.0, 0), RequestSpec(4.0, 1)])
        assert len(t) == 2
        assert t[1].video_id == 1
        assert t.duration == 4.0
        assert Trace([]).duration == 0.0

    def test_flash_crowd_adds_requests_in_window(self, rng):
        base = Trace([RequestSpec(float(i), 0) for i in range(100)])
        crowded = base.with_flash_crowd(
            video_id=7, start=10.0, duration=20.0, extra_rate=5.0, rng=rng
        )
        extra = [r for r in crowded if r.video_id == 7]
        assert len(extra) > 50  # ~100 expected
        assert all(10.0 <= r.time < 30.0 for r in extra)
        assert len(crowded) == len(base) + len(extra)


class TestGenerateTrace:
    def test_count_matches_rate(self, rng):
        pop = ZipfPopularity(3, 1.0)
        t = generate_trace(1000.0, 10.0, pop, rng)
        assert 9500 <= len(t) <= 10500

    def test_times_within_duration(self, rng):
        pop = ZipfPopularity(3, 1.0)
        t = generate_trace(50.0, 2.0, pop, rng)
        assert all(0.0 <= r.time < 50.0 for r in t)

    def test_video_distribution(self, rng):
        pop = ZipfPopularity(4, -0.5)
        t = generate_trace(5000.0, 20.0, pop, rng)
        freqs = np.bincount([r.video_id for r in t], minlength=4) / len(t)
        assert np.allclose(freqs, pop.probabilities, atol=0.02)

    def test_invalid_args_rejected(self, rng):
        pop = ZipfPopularity(2, 0.0)
        with pytest.raises(ValueError):
            generate_trace(0.0, 1.0, pop, rng)
        with pytest.raises(ValueError):
            generate_trace(10.0, 0.0, pop, rng)


class TestDeterminism:
    """Same seed => byte-identical trace (the live-serving parity chain
    starts here: gateway and replay must derive the same workload)."""

    @pytest.mark.parametrize("seed", [0, 7, 21, 1234])
    def test_same_seed_same_sequence(self, seed):
        pop = ZipfPopularity(12, -0.8)
        a = generate_trace(200.0, 0.7, pop, np.random.default_rng(seed))
        b = generate_trace(200.0, 0.7, pop, np.random.default_rng(seed))
        assert len(a) == len(b)
        assert all(
            x.time == y.time and x.video_id == y.video_id
            for x, y in zip(a, b)
        )

    def test_different_seeds_differ(self):
        pop = ZipfPopularity(12, -0.8)
        a = generate_trace(200.0, 0.7, pop, np.random.default_rng(1))
        b = generate_trace(200.0, 0.7, pop, np.random.default_rng(2))
        assert [(r.time, r.video_id) for r in a] != [
            (r.time, r.video_id) for r in b
        ]
