"""Unit tests for the time-series state sampler."""

import numpy as np
import pytest

from repro.analysis.timeseries import Snapshot, StateSampler, TimeSeries

from conftest import build_micro_cluster, make_client, make_video


def sampled_cluster(interval=10.0, bandwidth=5.0):
    cluster = build_micro_cluster(
        server_specs=[(bandwidth, 1e9)],
        videos=[make_video(video_id=0, length=100.0)],
        holders={0: [0]},
    )
    # The micro cluster quacks enough like a DistributionController for
    # the sampler (servers dict with iter_active).
    sampler = StateSampler(cluster.engine, cluster, interval=interval)
    return cluster, sampler


class TestTimeSeries:
    def test_array_views(self):
        ts = TimeSeries()
        ts.append(Snapshot(1.0, 2, 6.0, 2.0, 10.0, 0))
        ts.append(Snapshot(2.0, 3, 9.0, 3.0, 12.0, 1))
        assert len(ts) == 2
        assert ts.active_streams.tolist() == [2, 3]
        assert np.allclose(ts.utilization_series(12.0), [0.5, 0.75])
        assert ts.paused_streams.tolist() == [0, 1]

    def test_invalid_bandwidth_rejected(self):
        ts = TimeSeries()
        with pytest.raises(ValueError):
            ts.utilization_series(0.0)


class TestStateSampler:
    def test_samples_at_interval(self):
        cluster, sampler = sampled_cluster(interval=10.0)
        cluster.engine.run_until(35.0)
        assert [s.time for s in sampler.series.snapshots] == [10.0, 20.0, 30.0]

    def test_counts_active_streams(self):
        cluster, sampler = sampled_cluster(interval=10.0)
        cluster.submit(0, client=make_client())
        cluster.engine.run_until(15.0)
        cluster.submit(0, client=make_client())
        cluster.engine.run_until(25.0)
        counts = sampler.series.active_streams.tolist()
        assert counts == [1, 2]
        assert sampler.series.snapshots[-1].per_server_active == {0: 2}

    def test_instantaneous_rate_reflects_allocation(self):
        cluster, sampler = sampled_cluster(interval=10.0, bandwidth=5.0)
        cluster.submit(0, client=make_client(buffer_capacity=1e9))
        cluster.engine.run_until(10.0)
        # One stream, EFTF gives it the whole link.
        assert sampler.series.snapshots[0].instantaneous_rate == pytest.approx(5.0)
        assert sampler.series.utilization_series(5.0)[0] == pytest.approx(1.0)

    def test_buffer_projection_without_flush(self):
        """The sampler projects lazily-integrated state to now."""
        cluster, sampler = sampled_cluster(interval=10.0, bandwidth=5.0)
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=1e9))
        cluster.engine.run_until(10.0)
        # At t=10: sent 50, viewed 10 → buffer 40, without any flush.
        assert sampler.series.mean_buffers[0] == pytest.approx(40.0)

    def test_paused_streams_counted(self):
        cluster, sampler = sampled_cluster(interval=10.0)
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=50.0))
        cluster.engine.run_until(5.0)
        r.pause_playback(5.0)
        cluster.managers[0].reallocate(5.0, changed=r)
        cluster.engine.run_until(10.0)
        assert sampler.series.paused_streams[0] == 1

