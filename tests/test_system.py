"""Unit tests for system configurations (Figure 3 presets)."""

import numpy as np
import pytest

from repro.cluster.system import (
    LARGE_SYSTEM,
    SMALL_SYSTEM,
    SystemConfig,
    heterogeneous_bandwidth,
    heterogeneous_storage,
    homogeneous,
    sized_system,
)
from repro.units import gb_to_mb, minutes

from conftest import placed_copies


class TestFigure3Presets:
    def test_small_system_matches_paper(self):
        assert SMALL_SYSTEM.n_servers == 5
        assert SMALL_SYSTEM.server_bandwidths == (100.0,) * 5
        assert SMALL_SYSTEM.disk_capacities == (gb_to_mb(100.0),) * 5
        assert SMALL_SYSTEM.video_length_range == (minutes(10), minutes(30))
        assert SMALL_SYSTEM.avg_copies == pytest.approx(2.2)
        assert SMALL_SYSTEM.view_bandwidth == 3.0

    def test_large_system_matches_paper(self):
        assert LARGE_SYSTEM.n_servers == 20
        assert LARGE_SYSTEM.server_bandwidths == (300.0,) * 20
        assert LARGE_SYSTEM.disk_capacities == (gb_to_mb(50.0),) * 20
        assert LARGE_SYSTEM.video_length_range == (minutes(60), minutes(120))

    def test_svbr_values(self):
        # 100/3 ≈ 33 streams (small), 300/3 = 100 (large): the paper's
        # qualitative large-vs-small contrast.
        assert SMALL_SYSTEM.svbr == pytest.approx(100.0 / 3.0)
        assert LARGE_SYSTEM.svbr == pytest.approx(100.0)

    def test_replica_budget_fits_disks(self):
        """avg 2.2 copies of the mean-size video must fit the stated
        disks (the constraint our catalog sizes were chosen for); the
        capacity-aware assignment absorbs the length randomness."""
        for system in (SMALL_SYSTEM, LARGE_SYSTEM):
            lo, hi = system.video_length_range
            mean_size = (lo + hi) / 2.0 * system.view_bandwidth
            total_volume = system.total_copies * mean_size
            assert total_volume <= system.total_storage

    def test_total_copies(self):
        assert SMALL_SYSTEM.total_copies == round(2.2 * SMALL_SYSTEM.n_videos)

    def test_presets_build_as_figure3_tabulates(self):
        """The static phase (catalog + placement + wiring) honours the
        table ``repro fig3`` prints."""
        import re

        from repro.cluster.system import figure3_table
        from repro.simulation import Simulation, SimulationConfig

        assert re.search(r"Number of Servers +5 +20\n", figure3_table())
        for system, n_servers in ((SMALL_SYSTEM, 5), (LARGE_SYSTEM, 20)):
            sim = Simulation(SimulationConfig(
                system=system, theta=0.27, duration=60.0, seed=0
            ))
            assert len(sim.servers) == n_servers
            assert sim.placement_result.shortfall == 0
            placed = placed_copies(sim.placement_result.placement)
            assert abs(placed / system.n_videos - 2.2) < 0.05

    def test_build_servers_fresh_instances(self):
        a = SMALL_SYSTEM.build_servers()
        b = SMALL_SYSTEM.build_servers()
        assert len(a) == 5
        assert a[0] is not b[0]
        assert a[0].bandwidth == 100.0
        assert [s.server_id for s in a] == list(range(5))


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(
                name="bad",
                server_bandwidths=(1.0, 2.0),
                disk_capacities=(1.0,),
                n_videos=1,
                video_length_range=(1.0, 2.0),
            )

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(
                name="bad",
                server_bandwidths=(),
                disk_capacities=(),
                n_videos=1,
                video_length_range=(1.0, 2.0),
            )

    def test_avg_copies_below_one_rejected(self):
        with pytest.raises(ValueError):
            homogeneous("bad", 2, 10.0, 1.0, 10, (1.0, 2.0), avg_copies=0.5)


class TestHeterogeneity:
    def test_bandwidth_total_preserved(self, rng):
        het = heterogeneous_bandwidth(SMALL_SYSTEM, 0.5, rng)
        assert het.total_bandwidth == pytest.approx(SMALL_SYSTEM.total_bandwidth)
        assert het.n_servers == SMALL_SYSTEM.n_servers
        # Actually heterogeneous:
        assert np.std(het.server_bandwidths) > 0.0

    def test_storage_total_preserved(self, rng):
        het = heterogeneous_storage(SMALL_SYSTEM, 0.5, rng)
        assert het.total_storage == pytest.approx(SMALL_SYSTEM.total_storage)
        assert np.std(het.disk_capacities) > 0.0
        # Bandwidths untouched:
        assert het.server_bandwidths == SMALL_SYSTEM.server_bandwidths

    def test_zero_spread_is_homogeneous(self, rng):
        het = heterogeneous_bandwidth(SMALL_SYSTEM, 0.0, rng)
        assert np.allclose(het.server_bandwidths, 100.0)

    def test_invalid_spread_rejected(self, rng):
        with pytest.raises(ValueError):
            heterogeneous_bandwidth(SMALL_SYSTEM, 1.5, rng)

    def test_names_are_derived(self, rng):
        assert "hetbw" in heterogeneous_bandwidth(SMALL_SYSTEM, 0.3, rng).name
        assert "hetdisk" in heterogeneous_storage(SMALL_SYSTEM, 0.3, rng).name


class TestSizedSystem:
    def test_scales_server_count_and_catalog(self):
        sys10 = sized_system(10, base=SMALL_SYSTEM)
        assert sys10.n_servers == 10
        assert sys10.server_bandwidths == (100.0,) * 10
        assert sys10.n_videos == SMALL_SYSTEM.n_videos * 2

    def test_scaled_override(self):
        smaller = SMALL_SYSTEM.scaled(n_videos=50, name="tiny")
        assert smaller.n_videos == 50
        assert smaller.name == "tiny"
        assert smaller.n_servers == SMALL_SYSTEM.n_servers
