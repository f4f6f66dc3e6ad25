"""Edge-case and adversarial-input tests across the stack."""

import math

import pytest

from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.cluster.request import EPS_MB
from repro.core.admission import AdmissionOutcome
from repro.units import hours
from repro.workload.zipf import ZipfPopularity

from conftest import build_micro_cluster, make_client, make_video


class TestTinyConfigurations:
    def test_single_video_single_server(self):
        from repro.cluster.system import homogeneous

        system = homogeneous(
            name="micro", n_servers=1, bandwidth=3.0, disk_capacity_gb=10.0,
            n_videos=1, video_length_range=(60.0, 61.0), avg_copies=1.0,
        )
        result = Simulation(
            SimulationConfig(system=system, theta=0.0, duration=hours(1), seed=1)
        ).run()
        assert result.arrivals > 0
        assert 0.0 < result.utilization <= 1.0

    def test_zero_arrivals_window(self):
        """A duration far below the mean inter-arrival time may see no
        arrivals; the run must still complete cleanly."""
        from repro.cluster.system import homogeneous

        system = homogeneous(
            name="quiet", n_servers=1, bandwidth=3.0, disk_capacity_gb=10.0,
            n_videos=1, video_length_range=(6000.0, 6001.0), avg_copies=1.0,
        )
        result = Simulation(
            SimulationConfig(system=system, theta=0.0, duration=1.0, seed=1)
        ).run()
        assert result.arrivals in (0, 1, 2)
        assert result.utilization >= 0.0

    def test_catalog_larger_than_demand_support(self):
        """Very skewed demand on a large catalog: most videos never
        requested — placement must still give each one a replica."""
        tiny = SMALL_SYSTEM.scaled(n_videos=250, name="wide")
        sim = Simulation(SimulationConfig(
            system=tiny, theta=-1.5, duration=hours(1), seed=1,
        ))
        placement = sim.placement_result.placement
        assert all(placement.copies(v) >= 1 for v in range(250))


class TestDegenerateDemand:
    def test_all_mass_on_one_video(self):
        z = ZipfPopularity(100, -8.0)  # astronomically skewed
        assert z.probabilities[0] > 0.99

    def test_rejections_dominate_when_capacity_tiny(self):
        videos = [make_video(video_id=0, length=1000.0)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9)], videos=videos, holders={0: [0]},
        )
        outcomes = [cluster.submit(0)[1] for _ in range(5)]
        assert outcomes[0] is AdmissionOutcome.ACCEPTED
        assert all(o is AdmissionOutcome.REJECTED for o in outcomes[1:])
        cluster.metrics.sanity_check()


class TestNumericalRobustness:
    def test_many_tiny_videos_conservation(self):
        """Thousands of short transmissions: byte accounting must not
        drift (float accumulation check)."""
        videos = [make_video(video_id=0, length=10.0)]
        cluster = build_micro_cluster(
            server_specs=[(10.0, 1e9)], videos=videos, holders={0: [0]},
        )
        n = 300
        for i in range(n):
            cluster.engine.run_until(float(i) * 10.0)
            cluster.submit(0, client=make_client())
        cluster.engine.run_until(n * 10.0 + 100.0)
        cluster.managers[0].flush(n * 10.0 + 100.0)
        assert cluster.metrics.total_megabits == pytest.approx(
            n * 10.0, rel=1e-9
        )
        assert len(cluster.finished) == n

    def test_receive_cap_equal_to_view_rate(self):
        """extra capacity exactly zero: stream must never be boosted,
        and no spurious boundary events may fire."""
        videos = [make_video(video_id=0, length=100.0)]
        cluster = build_micro_cluster(
            server_specs=[(10.0, 1e9)], videos=videos, holders={0: [0]},
        )
        r, _ = cluster.submit(
            0, client=make_client(buffer_capacity=1e9, receive_bandwidth=1.0)
        )
        cluster.engine.run_until(101.0)
        assert r.finish_time == pytest.approx(100.0)
        # Events: admission boundary + finish — no buffer-full churn.
        assert cluster.engine.events_fired <= 3

    def test_buffer_capacity_smaller_than_epsilon_behaves_like_zero(self):
        videos = [make_video(video_id=0, length=100.0)]
        cluster = build_micro_cluster(
            server_specs=[(10.0, 1e9)], videos=videos, holders={0: [0]},
        )
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=1e-9))
        cluster.engine.run_until(50.0)
        cluster.managers[0].flush(50.0)
        assert r.rate == pytest.approx(r.view_bandwidth)


class TestMigrationEdgeCases:
    def test_chain_search_with_no_active_streams(self):
        from repro.core.migration import find_migration_chain

        videos = [make_video(video_id=0)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9)], videos=videos, holders={0: [0]},
            migration=MigrationPolicy.paper_default(),
        )
        chain = find_migration_chain(
            0, cluster.servers, cluster.placement,
            MigrationPolicy.paper_default(),
        )
        assert chain is None  # nothing to displace

    def test_video_with_single_replica_cannot_migrate(self):
        videos = [make_video(video_id=0), make_video(video_id=1)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9), (1.0, 1e9)],
            videos=videos,
            holders={0: [0], 1: [0]},   # everything pinned to server 0
            migration=MigrationPolicy.paper_default(),
        )
        cluster.submit(0)
        _, outcome = cluster.submit(1)
        # The only displacement candidate (video 0) has no other holder.
        assert outcome is AdmissionOutcome.REJECTED

    def test_migration_at_instant_of_finish(self):
        """A stream at the brink of finishing can still be migrated;
        accounting must stay exact."""
        videos = [make_video(video_id=0), make_video(video_id=1)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9), (1.0, 1e9)],
            videos=videos,
            holders={0: [0, 1], 1: [0]},
            migration=MigrationPolicy.paper_default(),
        )
        mover, _ = cluster.submit(0)
        cluster.engine.run_until(99.999)     # 0.001 Mb left to send
        _, outcome = cluster.submit(1)
        assert outcome is AdmissionOutcome.ACCEPTED_WITH_MIGRATION
        cluster.engine.run_until(150.0)
        assert mover.remaining(150.0) <= EPS_MB
        cluster.managers[0].flush(150.0)
        cluster.managers[1].flush(150.0)
        total = sum(cluster.metrics.bytes_per_server.values())
        # mover's 100 Mb + newcomer's progress (~50 Mb at 1 Mb/s).
        assert total == pytest.approx(100.0 + 50.001, abs=0.1)


class TestConfigSurface:
    def test_inf_receive_bandwidth_accepted(self):
        cfg = SimulationConfig(
            system=SMALL_SYSTEM.scaled(n_videos=50),
            theta=0.0, duration=60.0,
            client_receive_bandwidth=math.inf,
        )
        sim = Simulation(cfg)
        assert math.isinf(sim.controller._profile_for(0).receive_bandwidth)

    def test_load_above_one_allowed(self):
        cfg = SimulationConfig(
            system=SMALL_SYSTEM.scaled(n_videos=50),
            theta=0.0, duration=60.0, load=1.5,
        )
        assert cfg.load == 1.5
