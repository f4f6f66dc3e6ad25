"""Unit tests for VCR pause/resume (request model + driver)."""

import math

import pytest

from repro.core.admission import AdmissionOutcome
from repro.workload.interactivity import InteractivityModel

from repro.cluster.request import EPS_MB

from conftest import (
    build_micro_cluster, live_events, make_client, make_request, make_video,
)


class TestRequestPauseResume:
    def test_pause_freezes_consumption(self):
        r = make_request()  # 100 Mb at 1 Mb/s
        r.pause_playback(30.0)
        assert r.playback_paused
        assert r.bytes_viewed(30.0) == pytest.approx(30.0)
        assert r.bytes_viewed(80.0) == pytest.approx(30.0)  # frozen

    def test_resume_shifts_playback_clock(self):
        r = make_request()
        r.pause_playback(30.0)
        r.resume_playback(50.0)
        assert not r.playback_paused
        # 20 s pause: at t=60 the viewer has watched 40 s of content.
        assert r.bytes_viewed(60.0) == pytest.approx(40.0)
        assert r.playback_start + r.video.length == pytest.approx(120.0)

    def test_pause_is_idempotent(self):
        r = make_request()
        r.pause_playback(10.0)
        r.pause_playback(20.0)
        assert r.pauses == 1
        assert r.bytes_viewed(25.0) == pytest.approx(10.0)

    def test_resume_without_pause_is_noop(self):
        r = make_request()
        r.resume_playback(10.0)
        assert not r.playback_paused
        assert r.bytes_viewed(10.0) == pytest.approx(10.0)

    def test_pause_before_start_rejected(self):
        r = make_request(arrival_time=100.0)
        with pytest.raises(ValueError):
            r.pause_playback(50.0)

    def test_resume_before_pause_rejected(self):
        r = make_request()
        r.pause_playback(30.0)
        with pytest.raises(ValueError):
            r.resume_playback(20.0)

    def test_buffer_grows_during_pause(self):
        r = make_request(client=make_client(buffer_capacity=math.inf))
        r.rate = 2.0
        r.pause_playback(10.0)  # viewed frozen at 10
        r.sync(20.0)            # sent 40
        assert r.buffer_occupancy(20.0) == pytest.approx(30.0)

    def test_multiple_pause_episodes(self):
        r = make_request()
        r.pause_playback(10.0)
        r.resume_playback(20.0)
        r.pause_playback(30.0)
        r.resume_playback(40.0)
        assert r.pauses == 2
        # 20 s of pauses: by t=60 the viewer watched 40 s of content.
        assert r.bytes_viewed(60.0) == pytest.approx(40.0)


class TestPausedStreamScheduling:
    def one_server(self, bandwidth=10.0, buffer_capacity=18.0):
        cluster = build_micro_cluster(
            server_specs=[(bandwidth, 1e9)],
            videos=[make_video(video_id=0, length=100.0)],
            holders={0: [0]},
        )
        r, _ = cluster.submit(
            0, client=make_client(buffer_capacity=buffer_capacity)
        )
        return cluster, r

    def test_paused_stream_idles_once_buffer_full(self):
        cluster, r = self.one_server()
        cluster.engine.run_until(1.0)
        r.pause_playback(1.0)
        cluster.managers[0].reallocate(1.0, changed=r)
        # Buffer (cap 18) fills at full link rate; then the stream goes
        # fully idle — pumping on would overflow the viewer.
        cluster.engine.run_until(5.0)
        cluster.managers[0].flush(5.0)
        assert r.rate == pytest.approx(0.0)
        assert r.buffer_occupancy(5.0) == pytest.approx(18.0, abs=1e-6)
        sent_at_idle = r.bytes_sent
        cluster.engine.run_until(50.0)
        cluster.managers[0].flush(50.0)
        assert r.bytes_sent == pytest.approx(sent_at_idle)

    def test_resume_restarts_transmission(self):
        cluster, r = self.one_server()
        cluster.engine.run_until(1.0)
        r.pause_playback(1.0)
        cluster.managers[0].reallocate(1.0, changed=r)
        cluster.engine.run_until(30.0)
        r.resume_playback(30.0)
        cluster.managers[0].reallocate(30.0, changed=r)
        cluster.engine.run_until(31.0)
        assert r.rate >= r.view_bandwidth
        # Eventually completes despite the pause.
        cluster.engine.run_until(400.0)
        assert r.remaining(400.0) <= EPS_MB

    def test_no_underrun_through_pause_cycle(self):
        cluster, r = self.one_server(bandwidth=3.0, buffer_capacity=30.0)
        cluster.engine.run_until(2.0)
        r.pause_playback(2.0)
        cluster.managers[0].reallocate(2.0, changed=r)
        cluster.engine.run_until(20.0)
        r.resume_playback(20.0)
        cluster.managers[0].reallocate(20.0, changed=r)
        cluster.engine.run_until(150.0)
        assert cluster.metrics.underruns == 0
        # Playback never outpaced data: viewed <= sent throughout is
        # implied by a non-negative final buffer and no underruns.
        assert r.remaining(150.0) <= EPS_MB


class TestInteractivityModel:
    def build(self, hazard=1 / 50.0, mean_pause=10.0, max_pauses=None):
        cluster = build_micro_cluster(
            server_specs=[(10.0, 1e9)],
            videos=[make_video(video_id=0, length=200.0)],
            holders={0: [0]},
        )
        # The micro-cluster has no DistributionController; stand in
        # for the one thing the model reads off it.  Tests deliver the
        # decision notification by calling ``model.on_decision``.
        class _Shim:
            managers = cluster.managers

        shim = _Shim()
        import numpy as np

        model = InteractivityModel(
            cluster.engine, shim, np.random.default_rng(3),
            pause_hazard=hazard, mean_pause_duration=mean_pause,
            max_pauses_per_stream=max_pauses,
        )
        return cluster, shim, model

    def test_validation(self):
        cluster, shim, _ = self.build()
        import numpy as np

        with pytest.raises(ValueError):
            InteractivityModel(
                cluster.engine, shim, np.random.default_rng(0),
                pause_hazard=0.0, mean_pause_duration=1.0,
            )
        with pytest.raises(ValueError):
            InteractivityModel(
                cluster.engine, shim, np.random.default_rng(0),
                pause_hazard=1.0, mean_pause_duration=0.0,
            )

    def test_pauses_and_resumes_fire(self):
        cluster, shim, model = self.build(hazard=1 / 5.0, mean_pause=5.0)
        r, outcome = cluster.submit(0, client=make_client(buffer_capacity=50.0))
        model.on_decision(outcome, r)
        cluster.engine.run_until(150.0)
        assert model.pauses_executed >= 1
        assert model.resumes_executed >= 1

    def test_max_pauses_respected(self):
        cluster, shim, model = self.build(
            hazard=1 / 2.0, mean_pause=2.0, max_pauses=2
        )
        r, outcome = cluster.submit(0, client=make_client(buffer_capacity=50.0))
        model.on_decision(outcome, r)
        cluster.engine.run_until(500.0)
        assert r.pauses <= 2

    def test_rejected_requests_not_tracked(self):
        cluster, shim, model = self.build()
        r = make_request(video=cluster.catalog[0])
        r.mark_rejected("holders_full")
        model.on_decision(AdmissionOutcome.REJECTED, r)
        # No pause events scheduled for it:
        kinds = [e.kind for e in live_events(cluster.engine)]
        assert not any("vcr" in k for k in kinds)

    def test_finished_stream_pause_is_noop(self):
        cluster, shim, model = self.build()
        r, outcome = cluster.submit(0, client=make_client())
        cluster.engine.run_until(250.0)  # transmission done
        assert r.remaining(250.0) <= EPS_MB
        model._pause(r)
        assert not r.playback_paused
        assert model.pauses_executed == 0
