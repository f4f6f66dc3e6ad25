"""Unit tests for the request fluid-flow state machine."""

import math

import pytest

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.request import EPS_MB, RequestState

from conftest import make_client, make_request, make_video


class TestLifecycle:
    def test_initial_state(self):
        r = make_request(arrival_time=5.0)
        assert r.state is RequestState.ACTIVE
        assert r.bytes_sent == 0.0
        assert r.rate == 0.0
        assert r.hops == 0
        assert r.playback_start == 5.0
        assert r.server_id is None

    def test_ids_are_unique_and_increasing(self):
        a, b = make_request(), make_request()
        assert b.request_id > a.request_id

    def test_mark_finished(self):
        r = make_request()
        r.mark_finished(42.0)
        assert r.state is RequestState.FINISHED
        assert r.finish_time == 42.0
        assert r.rate == 0.0

    def test_mark_rejected_clears_server(self):
        r = make_request()
        r.server_id = 3
        assert r.reject_reason is None
        r.mark_rejected("holders_full")
        assert r.state is RequestState.REJECTED
        assert r.server_id is None
        assert r.reject_reason == "holders_full"

    def test_mark_dropped(self):
        r = make_request()
        r.mark_dropped(10.0)
        assert r.state is RequestState.DROPPED
        assert r.finish_time == 10.0


class TestSync:
    def test_integrates_rate_over_time(self):
        r = make_request()          # 100 Mb video
        r.rate = 2.0
        delta = r.sync(10.0)
        assert delta == pytest.approx(20.0)
        assert r.bytes_sent == pytest.approx(20.0)
        assert r.last_sync == 10.0

    def test_clamps_at_video_size(self):
        r = make_request()
        r.rate = 2.0
        delta = r.sync(1000.0)  # would be 2000 Mb, video is 100 Mb
        assert delta == pytest.approx(100.0)
        assert r.bytes_sent == pytest.approx(100.0)
        assert r.remaining(1000.0) <= EPS_MB

    def test_reports_to_metrics(self):
        metrics = SimulationMetrics()
        r = make_request()
        r.server_id = 2
        r.rate = 1.0
        r.sync(30.0, metrics)
        assert metrics.total_megabits == pytest.approx(30.0)
        assert metrics.bytes_per_server[2] == pytest.approx(30.0)

    def test_backwards_sync_raises(self):
        r = make_request()
        r.sync(10.0)
        with pytest.raises(ValueError):
            r.sync(5.0)

    def test_zero_rate_moves_clock_only(self):
        r = make_request()
        r.sync(10.0)
        assert r.bytes_sent == 0.0
        assert r.last_sync == 10.0


class TestDerivedQuantities:
    def test_bytes_viewed_follows_playback(self):
        r = make_request()  # b_view = 1 Mb/s, 100 Mb
        assert r.bytes_viewed(0.0) == 0.0
        assert r.bytes_viewed(30.0) == pytest.approx(30.0)
        assert r.bytes_viewed(1000.0) == pytest.approx(100.0)  # capped

    def test_buffer_is_sent_minus_viewed(self):
        r = make_request(client=make_client(buffer_capacity=50.0))
        r.rate = 3.0
        r.sync(10.0)  # sent 30, viewed 10
        assert r.buffer_occupancy(10.0) == pytest.approx(20.0)

    def test_headroom_capacity_bound(self):
        r = make_request(client=make_client(buffer_capacity=15.0))
        r.rate = 3.0
        r.sync(5.0)  # sent 15, viewed 5, buffer 10
        assert r.headroom(5.0) == pytest.approx(5.0)

    def test_headroom_data_bound(self):
        r = make_request(client=make_client(buffer_capacity=math.inf))
        r.rate = 3.0
        r.sync(30.0)  # sent 90 of 100
        assert r.headroom(30.0) == pytest.approx(10.0)

    def test_headroom_zero_when_buffer_full(self):
        r = make_request(client=make_client(buffer_capacity=10.0))
        r.rate = 2.0
        r.sync(10.0)  # sent 20, viewed 10, buffer 10 = cap
        assert r.headroom(10.0) == pytest.approx(0.0)

    def test_remaining_and_finished_flag(self):
        r = make_request()
        assert r.remaining(0.0) == pytest.approx(100.0)
        r.rate = 1.0
        # Projected from the last sync: a lazily integrated stream
        # reads the same before and after its sync.
        assert r.remaining(60.0) == pytest.approx(40.0)
        assert r.remaining(100.0) <= EPS_MB
        r.sync(100.0)
        assert r.remaining(100.0) <= EPS_MB

    def test_minimum_flow_keeps_buffer_nonnegative(self):
        """At rate exactly b_view the buffer never goes negative."""
        r = make_request()
        r.rate = r.view_bandwidth
        for t in (10.0, 25.0, 60.0, 99.0):
            r.sync(t)
            assert r.buffer_occupancy(t) == pytest.approx(0.0, abs=1e-9)

    def test_hot_copies_match_video(self):
        v = make_video(length=60.0, view_bandwidth=2.0)
        r = make_request(video=v)
        assert r.size == v.size
        assert r.view_bandwidth == v.view_bandwidth
