"""Unit tests for the dynamic-replication extension."""

import pytest

from repro.core.admission import AdmissionOutcome
from repro.core.replication import (
    COPY_BANDWIDTH,
    TRIGGER_REJECTIONS,
    DynamicReplicator,
    ReplicationPolicy,
)

from conftest import build_micro_cluster, make_video


def replicating_cluster(
    policy=None, specs=None, holders=None, n_videos=3, disk=1e9
):
    videos = [make_video(video_id=i) for i in range(n_videos)]
    cluster = build_micro_cluster(
        server_specs=specs or [(1.0, disk), (1.0, disk)],
        videos=videos,
        holders=holders if holders is not None else {0: [0], 1: [1], 2: [1]},
    )
    replicator = DynamicReplicator(
        cluster.engine,
        cluster.servers,
        cluster.placement,
        cluster.catalog,
        policy=policy,
    )
    return cluster, replicator


def reject(replicator, request, times=TRIGGER_REJECTIONS):
    """Report *request* rejected *times* times — by default, just
    enough to commission a copy."""
    for _ in range(times):
        replicator.on_decision(AdmissionOutcome.REJECTED, request)


class TestPolicyValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(max_concurrent_copies=0)


class TestTrigger:
    def test_rejections_below_threshold_do_nothing(self):
        cluster, replicator = replicating_cluster()
        r, outcome = cluster.submit(0)
        reject(replicator, r, times=TRIGGER_REJECTIONS - 1)
        assert replicator.in_flight == set()

    def test_threshold_commissions_copy(self):
        cluster, replicator = replicating_cluster()
        r, _ = cluster.submit(0)
        reject(replicator, r)
        assert 0 in replicator.in_flight

    def test_accepts_do_not_count(self):
        cluster, replicator = replicating_cluster()
        r, _ = cluster.submit(0)
        for _ in range(10):
            replicator.on_decision(AdmissionOutcome.ACCEPTED, r)
        assert replicator.in_flight == set()

    def test_no_replica_rejections_do_not_count(self):
        """REJECTED_NO_REPLICA means no source copy exists to stream
        from a data server — tertiary restore is a different path."""
        cluster, replicator = replicating_cluster()
        r, _ = cluster.submit(0)
        for _ in range(10):
            replicator.on_decision(AdmissionOutcome.REJECTED_NO_REPLICA, r)
        assert replicator.in_flight == set()


class TestCopyLifecycle:
    def test_replica_published_after_transfer_delay(self):
        cluster, replicator = replicating_cluster()
        r, _ = cluster.submit(0)
        reject(replicator, r)
        # Copy of video 0 from tertiary storage to server 1.
        seconds = cluster.catalog[0].size / COPY_BANDWIDTH
        cluster.engine.run_until(0.9 * seconds)
        assert cluster.placement.holders(0) == (0,)   # not yet published
        assert cluster.servers[1].holds(0)            # disk reserved
        cluster.engine.run_until(1.1 * seconds)
        assert cluster.placement.holders(0) == (0, 1)
        assert replicator.replications == 1
        assert replicator.in_flight == set()

    def test_new_replica_serves_requests(self):
        cluster, replicator = replicating_cluster()
        filler, _ = cluster.submit(0)      # fills server 0 (bw=1)
        victim, outcome = cluster.submit(0)
        assert outcome is AdmissionOutcome.REJECTED
        reject(replicator, victim)
        cluster.engine.run_until(11.0)
        _, outcome2 = cluster.submit(0)
        assert outcome2 is AdmissionOutcome.ACCEPTED  # lands on server 1

    def test_concurrent_copy_cap(self):
        cluster, replicator = replicating_cluster(
            policy=ReplicationPolicy(max_concurrent_copies=1),
            n_videos=3,
            holders={0: [0], 1: [0], 2: [1]},
        )
        r0, _ = cluster.submit(0)
        r1 = cluster.catalog[1]
        from conftest import make_request

        req0 = make_request(video=cluster.catalog[0])
        req1 = make_request(video=cluster.catalog[1])
        reject(replicator, req0)
        assert replicator.in_flight == {0}
        reject(replicator, req1)
        assert replicator.in_flight == {0}  # cap reached; 1 not started

    def test_duplicate_copy_not_started(self):
        cluster, replicator = replicating_cluster()
        from conftest import make_request

        req = make_request(video=cluster.catalog[0])
        reject(replicator, req)
        reject(replicator, req)
        assert replicator.in_flight == {0}
        assert sum(1 for s in cluster.servers.values() if s.holds(0)) == 2

    def test_failed_server_voids_in_flight_copy(self):
        cluster, replicator = replicating_cluster()
        from conftest import make_request

        req = make_request(video=cluster.catalog[0])
        reject(replicator, req)
        cluster.servers[1].fail()
        cluster.engine.run_until(20.0)
        assert replicator.replications == 0
        assert replicator.failed_attempts == 1
        assert cluster.placement.holders(0) == (0,)
        assert not cluster.servers[1].holds(0)


class TestEviction:
    def test_cold_replica_evicted_for_hot_copy(self):
        # Server 1's disk fits exactly one 100 Mb video; video 2 is the
        # cold occupant (it has another copy on server 0).
        cluster, replicator = replicating_cluster(
            specs=[(1.0, 1e9), (1.0, 100.0)],
            n_videos=2,
            holders={0: [0], 1: [0, 1]},
        )
        from conftest import make_request

        req = make_request(video=cluster.catalog[0])
        reject(replicator, req)
        assert replicator.evictions == 1
        assert not cluster.servers[1].holds(1)
        assert cluster.placement.holders(1) == (0,)
        cluster.engine.run_until(11.0)
        assert cluster.placement.holders(0) == (0, 1)

    def test_sole_copy_never_evicted(self):
        cluster, replicator = replicating_cluster(
            specs=[(1.0, 1e9), (1.0, 100.0)],
            n_videos=2,
            holders={0: [0], 1: [1]},   # video 1 exists ONLY on server 1
        )
        from conftest import make_request

        req = make_request(video=cluster.catalog[0])
        reject(replicator, req)
        assert replicator.evictions == 0
        assert cluster.servers[1].holds(1)
        assert replicator.failed_attempts == 1

    def test_replica_in_active_use_never_evicted(self):
        cluster, replicator = replicating_cluster(
            specs=[(1.0, 1e9), (1.0, 100.0)],
            n_videos=2,
            holders={0: [0], 1: [0, 1]},
        )
        # Fill server 0 so the video-1 viewer lands on server 1.
        cluster.submit(0)
        viewer, outcome = cluster.submit(1)
        assert viewer.server_id == 1
        from conftest import make_request

        req = make_request(video=cluster.catalog[0])
        reject(replicator, req)
        assert replicator.evictions == 0
        assert cluster.servers[1].holds(1)


class TestEndToEnd:
    def test_replication_rescues_skewed_demand(self):
        """The EXT-DR headline at test scale: rejection-driven copies
        recover most of the utilization even placement loses at θ < 0."""
        from repro import MigrationPolicy, Simulation, SimulationConfig
        from repro.cluster.system import SMALL_SYSTEM
        from repro.units import hours

        tiny = SMALL_SYSTEM.scaled(n_videos=120, name="tiny")
        kw = dict(
            system=tiny, theta=-1.5, placement="even",
            migration=MigrationPolicy.paper_default(),
            staging_fraction=0.2, duration=hours(6), warmup=hours(2),
            seed=8,
        )
        static = Simulation(SimulationConfig(**kw)).run()
        sim = Simulation(
            SimulationConfig(**kw, replication=ReplicationPolicy())
        )
        dynamic = sim.run()
        assert sim.replicator.replications > 0
        assert dynamic.utilization > static.utilization + 0.1
