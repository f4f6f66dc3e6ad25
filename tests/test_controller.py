"""Unit tests for the distribution controller facade."""

import pytest

from repro.cluster.client import ClientProfile
from repro.cluster.controller import DistributionController
from repro.cluster.membership import ClusterMembership
from repro.cluster.server import DataServer
from repro.core.admission import AdmissionOutcome
from repro.core.migration import MigrationPolicy
from repro.core.schedulers import EFTFAllocator
from repro.placement.base import PlacementMap
from repro.sim.engine import Engine
from repro.workload.catalog import VideoCatalog

from conftest import make_video


def build_controller(n_servers=2, bandwidth=3.0, n_videos=2, profile=None):
    engine = Engine()
    servers = [
        DataServer(i, bandwidth=bandwidth, disk_capacity=1e9)
        for i in range(n_servers)
    ]
    videos = tuple(make_video(video_id=i) for i in range(n_videos))
    catalog = VideoCatalog(videos=videos)
    holders = {}
    for v in videos:
        for s in servers:
            s.store_replica(v)
        holders[v.video_id] = tuple(s.server_id for s in servers)
    membership = ClusterMembership()
    for s in servers:
        membership.register(s.server_id)
    controller = DistributionController(
        engine=engine,
        servers=servers,
        catalog=catalog,
        placement=PlacementMap(holders),
        client_profile=profile or ClientProfile(),
        allocator=EFTFAllocator(),
        migration_policy=MigrationPolicy.disabled(),
        membership=membership,
    )
    return engine, controller


class TestSubmit:
    def test_submit_accepts_and_tracks(self):
        engine, controller = build_controller()
        request, outcome = controller.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED
        assert request.server_id in controller.servers
        assert controller.active_count == 1
        assert controller.metrics.accepted == 1

    def test_client_profile_callable(self):
        big = ClientProfile(buffer_capacity=999.0)
        small = ClientProfile(buffer_capacity=1.0)
        engine, controller = build_controller(
            profile=lambda vid: big if vid == 0 else small
        )
        controller.submit(0)
        controller.submit(1)
        requests = [
            r
            for s in controller.servers.values()
            for r in s.iter_active()
        ]
        caps = sorted(r.client.buffer_capacity for r in requests)
        assert caps == [1.0, 999.0]

    def test_on_decision_hook(self):
        engine, controller = build_controller()
        seen = []
        controller.on_decision.append(
            lambda outcome, req: seen.append((outcome, req.video.video_id))
        )
        controller.submit(1)
        assert seen == [(AdmissionOutcome.ACCEPTED, 1)]

    def test_subscribe_picks_up_the_handlers_an_observer_defines(self):
        engine, controller = build_controller()
        seen = []

        class Watcher:
            def on_decision(self, outcome, request):
                seen.append(("decision", outcome, request.request_id))

            def on_finish(self, request, now):
                seen.append(("finish", request.request_id, now))

        class DropOnly:
            on_decision = None  # a trigger that watches nothing

            def on_drop(self, request):
                seen.append(("drop", request.request_id))

        watcher, drop_only = Watcher(), DropOnly()
        controller.subscribe(watcher)
        controller.subscribe(drop_only)
        assert controller.intercept is None
        assert controller.on_decision == [watcher.on_decision]
        assert controller.on_finish == [watcher.on_finish]
        assert controller.on_drop == [drop_only.on_drop]

        request, outcome = controller.submit(0)
        engine.run_until(200.0)
        rid = request.request_id
        assert seen == [("decision", outcome, rid), ("finish", rid, 100.0)]

    def test_intercept_decides_fresh_arrivals_but_not_retries(self):
        engine, controller = build_controller()
        offered = []

        class Front:
            def intercept(self, request, now):
                offered.append(request.request_id)
                return AdmissionOutcome.ACCEPTED_CHAINED

        controller.subscribe(Front())
        request, outcome = controller.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED_CHAINED
        assert request.server_id is None      # admission never ran
        assert controller.resubmit(request)[1] is AdmissionOutcome.ACCEPTED
        assert offered == [request.request_id]

    def test_second_intercept_provider_rejected(self):
        engine, controller = build_controller()

        class Front:
            def intercept(self, request, now):
                return None

        controller.subscribe(Front())
        with pytest.raises(ValueError, match="pre-admission stage"):
            controller.subscribe(Front())

    def test_finished_streams_recorded(self):
        engine, controller = build_controller()
        finished = []

        class Observer:
            def on_finish(self, request, now):
                finished.append((request, now))

        controller.subscribe(Observer())
        request, _ = controller.submit(0)
        engine.run_until(200.0)
        assert controller.metrics.finished == 1
        assert finished == [(request, request.finish_time)]
        assert controller.active_count == 0


class TestAccounting:
    def test_total_bandwidth_includes_down_servers(self):
        engine, controller = build_controller(n_servers=3, bandwidth=5.0)
        controller.servers[1].fail()
        assert controller.total_bandwidth() == pytest.approx(15.0)

    def test_finalize_flushes_and_checks(self):
        engine, controller = build_controller()
        controller.submit(0)
        engine.run_until(50.0)
        controller.finalize(50.0)
        assert controller.metrics.total_megabits == pytest.approx(50.0)

    def test_check_invariants_clean_run(self):
        engine, controller = build_controller()
        for _ in range(4):
            controller.submit(0)
        engine.run_until(30.0)
        controller.check_invariants()

    def test_check_invariants_detects_missing_replica(self):
        engine, controller = build_controller()
        controller.submit(0)
        server = controller.servers[0]
        # Corrupt: pretend the replica vanished.
        victim = next(iter(server.iter_active()), None)
        if victim is None:
            server = controller.servers[1]
            victim = next(iter(server.iter_active()))
        server.holdings.discard(victim.video.video_id)
        with pytest.raises(AssertionError):
            controller.check_invariants()
