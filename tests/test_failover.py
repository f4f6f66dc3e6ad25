"""Unit tests for server failure handling via DRM."""

import pytest

from repro.cluster.request import RequestState
from repro.core.failover import FailoverManager
from repro.core.migration import MigrationPolicy

from conftest import build_micro_cluster, make_client, make_video


def cluster_with_failover(holders, specs=None):
    videos = [make_video(video_id=i) for i in range(len(holders))]
    cluster = build_micro_cluster(
        server_specs=specs or [(2.0, 1e9)] * 3,
        videos=videos,
        holders=holders,
        migration=MigrationPolicy.paper_default(),
    )
    failover = FailoverManager(
        cluster.engine,
        cluster.servers,
        cluster.managers,
        cluster.placement,
        cluster.metrics,
        on_drop=[],
    )
    return cluster, failover


class TestFailServer:
    def test_orphans_relocate_to_other_holders(self):
        cluster, failover = cluster_with_failover({0: [0, 1]})
        a, _ = cluster.submit(0)
        b, _ = cluster.submit(0)
        # a on 0, b on 1 (least loaded alternation)
        cluster.engine.run_until(10.0)
        report = failover.fail_server(a.server_id)
        assert report.dropped == []
        assert report.relocated == [a.request_id]
        assert a.server_id == b.server_id  # moved to the survivor
        assert report.survival_ratio == 1.0

    def test_orphans_dropped_when_no_home(self):
        cluster, failover = cluster_with_failover({0: [0]})
        a, _ = cluster.submit(0)
        cluster.engine.run_until(5.0)
        report = failover.fail_server(0)
        assert report.dropped == [a.request_id]
        assert a.state is RequestState.DROPPED
        assert cluster.metrics.dropped == 1

    def test_capacity_respected_during_relocation(self):
        # Server 1 (bw=2) can absorb at most 2 orphans.
        cluster, failover = cluster_with_failover(
            {0: [0, 1]}, specs=[(3.0, 1e9), (2.0, 1e9)]
        )
        streams = []
        for _ in range(3):
            r, _ = cluster.submit(0)
            streams.append(r)
        on_zero = [r for r in streams if r.server_id == 0]
        cluster.engine.run_until(1.0)
        report = failover.fail_server(0)
        survivors = cluster.servers[1]
        assert survivors.active_count <= 2
        assert len(report.relocated) + len(report.dropped) == len(on_zero)

    def test_transfer_accounting_up_to_failure(self):
        cluster, failover = cluster_with_failover({0: [0]})
        cluster.submit(0, client=make_client(buffer_capacity=1e9))
        cluster.engine.run_until(10.0)
        failover.fail_server(0)
        # The buffered stream ran 10 s at the full 2 Mb/s link.
        assert cluster.metrics.bytes_per_server[0] == pytest.approx(20.0)

    def test_down_server_rejects_admission(self):
        cluster, failover = cluster_with_failover({0: [0]})
        failover.fail_server(0)
        from repro.core.admission import AdmissionOutcome

        _, outcome = cluster.submit(0)
        assert outcome is AdmissionOutcome.REJECTED_NO_REPLICA

    def test_restore_rejoins_rotation(self):
        cluster, failover = cluster_with_failover({0: [0]})
        failover.fail_server(0)
        failover.restore_server(0)
        from repro.core.admission import AdmissionOutcome

        _, outcome = cluster.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED

    def test_relocation_uses_chain_when_direct_full(self):
        # video 0 on {0,1}, video 1 on {1,2}.  Server 1 full with a
        # video-1 stream that can hop to server 2, making room for the
        # orphaned video-0 stream.
        cluster, failover = cluster_with_failover(
            {0: [0, 1], 1: [1, 2]},
            specs=[(1.0, 1e9), (1.0, 1e9), (1.0, 1e9)],
        )
        orphan, _ = cluster.submit(0)   # → server 0
        blocker, _ = cluster.submit(1)  # → server 1 (least loaded of 1,2 tie → 1)
        assert orphan.server_id == 0 and blocker.server_id == 1
        cluster.engine.run_until(1.0)
        report = failover.fail_server(0)
        assert report.relocated == [orphan.request_id]
        assert orphan.server_id == 1
        assert blocker.server_id == 2

    def test_reports_accumulate(self):
        cluster, failover = cluster_with_failover({0: [0, 1]})
        cluster.submit(0)
        failover.fail_server(0)
        failover.restore_server(0)
        failover.fail_server(1)
        assert len(failover.reports) == 2
        assert failover.reports[0].server_id == 0
        assert failover.reports[1].server_id == 1


class TestFailRestoreFailCycles:
    """Regression: restore-under-load must not double-count streams."""

    def test_migration_accounting_matches_registry_across_cycles(self):
        # The old failover path bumped ``metrics.migrations`` directly,
        # so after a fail -> restore -> fail cycle the dataclass field
        # and the registry's ``drm.migrations`` counter diverged.
        cluster, failover = cluster_with_failover({0: [0, 1]})
        a, _ = cluster.submit(0)
        b, _ = cluster.submit(0)
        cluster.engine.run_until(1.0)
        failover.fail_server(0)      # a relocates to 1
        cluster.engine.run_until(2.0)
        failover.restore_server(0)
        cluster.engine.run_until(3.0)
        failover.fail_server(1)      # both relocate back to 0
        cluster.engine.run_until(4.0)
        assert cluster.metrics.migrations == 3
        registry_migrations = cluster.metrics.registry.counter(
            "drm.migrations"
        ).snapshot()
        assert registry_migrations == cluster.metrics.migrations

    def test_streams_attached_exactly_once_after_cycles(self):
        cluster, failover = cluster_with_failover({0: [0, 1]})
        a, _ = cluster.submit(0)
        b, _ = cluster.submit(0)
        cluster.engine.run_until(1.0)
        failover.fail_server(0)
        failover.restore_server(0)
        failover.fail_server(1)
        live = [r for r in (a, b) if r.state is RequestState.ACTIVE]
        attached = sum(s.active_count for s in cluster.servers.values())
        assert attached == len(live)
        for request in live:
            holder = cluster.servers[request.server_id]
            assert sum(1 for r in holder.iter_active() if r is request) == 1

    def test_double_fail_is_noop(self):
        cluster, failover = cluster_with_failover({0: [0]})
        a, _ = cluster.submit(0)
        cluster.engine.run_until(1.0)
        first = failover.fail_server(0)
        again = failover.fail_server(0)
        assert first.dropped == [a.request_id]
        assert again.relocated == [] and again.dropped == []
        assert len(failover.reports) == 1
        assert cluster.metrics.dropped == 1

    def test_double_restore_is_noop(self):
        cluster, failover = cluster_with_failover({0: [0]})
        cluster.submit(0)
        failover.fail_server(0)
        failover.restore_server(0)
        before = cluster.metrics.migrations
        failover.restore_server(0)  # already up: nothing should move
        assert cluster.metrics.migrations == before
        assert cluster.servers[0].up


class TestDegradeServer:
    def test_shed_newest_first_drops_when_no_other_holder(self):
        cluster, failover = cluster_with_failover({0: [0]})
        a, _ = cluster.submit(0)
        b, _ = cluster.submit(0)
        cluster.engine.run_until(1.0)
        report = failover.degrade_server(0, 0.6)  # link 2.0 -> 1.2 Mb/s
        assert report.dropped == [b.request_id]  # newest admission shed
        assert a.state is RequestState.ACTIVE
        assert b.state is RequestState.DROPPED
        server = cluster.servers[0]
        assert server.bandwidth == pytest.approx(1.2)
        assert server.degraded
        assert a.rate <= 1.2 + 1e-9

    def test_shed_stream_relocates_away_from_degraded_server(self):
        cluster, failover = cluster_with_failover({0: [0, 1]})
        a, _ = cluster.submit(0)  # -> server 0
        cluster.engine.run_until(1.0)
        report = failover.degrade_server(0, 0.3)  # floor no longer fits
        assert report.relocated == [a.request_id]
        assert a.server_id == 1  # never placed back on the degraded node
        assert a.state is RequestState.ACTIVE

    def test_restore_link_returns_nominal_capacity(self):
        cluster, failover = cluster_with_failover({0: [0]})
        # Buffered client: rate may exceed view bandwidth, so the link
        # scale is visible in the allocated rate.
        a, _ = cluster.submit(0, client=make_client(buffer_capacity=1e9))
        cluster.engine.run_until(1.0)
        failover.degrade_server(0, 0.6)
        assert a.rate == pytest.approx(1.2)  # squeezed into the degraded link
        failover.restore_link(0)
        server = cluster.servers[0]
        assert not server.degraded
        assert server.bandwidth == pytest.approx(2.0)
        assert a.rate == pytest.approx(2.0)  # EFTF re-fills the link

    def test_degrade_down_server_is_noop(self):
        cluster, failover = cluster_with_failover({0: [0]})
        cluster.submit(0)
        failover.fail_server(0)
        reports_before = len(failover.reports)
        report = failover.degrade_server(0, 0.5)
        assert report.relocated == [] and report.dropped == []
        assert len(failover.reports) == reports_before
        assert cluster.servers[0].nominal_bandwidth == pytest.approx(2.0)


class TestReplicaLoss:
    def test_lose_replica_relocates_and_forgets_holder(self):
        cluster, failover = cluster_with_failover({0: [0, 1]})
        a, _ = cluster.submit(0)  # -> server 0
        cluster.engine.run_until(1.0)
        report = failover.lose_replica(0, cluster.catalog[0])
        assert report.relocated == [a.request_id]
        assert a.server_id == 1
        assert not cluster.servers[0].holds(0)
        assert tuple(cluster.placement.holders(0)) == (1,)
        # New admissions route to the surviving holder.
        c, outcome = cluster.submit(0)
        assert c.server_id == 1

    def test_lose_replica_noop_when_not_held(self):
        cluster, failover = cluster_with_failover({0: [0]})
        report = failover.lose_replica(1, cluster.catalog[0])
        assert report.relocated == [] and report.dropped == []
        assert len(failover.reports) == 0

    def test_on_drop_hook_sees_unrescuable_orphans(self):
        cluster, failover = cluster_with_failover({0: [0]})
        seen = []
        failover.on_drop.append(seen.append)
        a, _ = cluster.submit(0)
        cluster.engine.run_until(1.0)
        failover.lose_replica(0, cluster.catalog[0])
        assert seen == [a]
        assert a.state is RequestState.DROPPED
