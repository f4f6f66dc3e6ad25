"""Unit tests for the placement layer (base map, capacity assignment)."""

from pathlib import Path

import numpy as np
import pytest

from repro.cluster.server import DataServer
from repro.placement import capacity
from repro.placement.base import PlacementMap, clamp_counts_to_total
from repro.placement.capacity import assign_copies_randomly
from repro.scenario import load_scenario
from repro.simulation import Simulation
from repro.workload.catalog import Video, VideoCatalog

from conftest import placed_copies

REPO = Path(__file__).resolve().parents[1]


def catalog_of(n, size_mb=100.0):
    return VideoCatalog(
        videos=tuple(Video(i, length=size_mb, view_bandwidth=1.0) for i in range(n))
    )


def servers_of(n, disk=10_000.0, bandwidth=100.0):
    return [DataServer(i, bandwidth=bandwidth, disk_capacity=disk) for i in range(n)]


class TestPlacementMap:
    def test_holders_sorted_and_deduplicated(self):
        m = PlacementMap({0: (3, 1, 1), 1: (2,)})
        assert m.holders(0) == (1, 3)
        assert m.copies(0) == 2
        assert m.holders(99) == ()

    def test_videos_on_server(self):
        m = PlacementMap({0: (0, 1), 1: (1,), 2: (2,)})
        assert m.videos_on(1) == [0, 1]
        assert m.videos_on(2) == [2]
        assert m.videos_on(9) == []


class TestClampCounts:
    def test_reduces_to_total(self, rng):
        counts = np.array([5, 5, 5])
        out = clamp_counts_to_total(counts, 9, n_servers=5, rng=rng)
        assert out.sum() == 9
        assert (out >= 1).all()

    def test_increases_to_total(self, rng):
        counts = np.array([1, 1, 1])
        out = clamp_counts_to_total(counts, 7, n_servers=5, rng=rng)
        assert out.sum() == 7
        assert (out <= 5).all()

    def test_unreachable_total_returns_closest(self, rng):
        counts = np.array([1, 1])
        out = clamp_counts_to_total(counts, 100, n_servers=3, rng=rng)
        assert out.tolist() == [3, 3]  # best achievable


class TestAssignCopies:
    def test_counts_honoured_when_feasible(self, rng):
        cat = catalog_of(10)
        servers = servers_of(5)
        counts = np.full(10, 2)
        placement, shortfall = assign_copies_randomly(cat, counts, servers, rng)
        assert shortfall == 0
        assert placed_copies(placement) == 20
        for vid in range(10):
            holders = placement.holders(vid)
            assert len(holders) == 2
            assert len(set(holders)) == 2  # distinct servers

    def test_disks_are_charged(self, rng):
        cat = catalog_of(4, size_mb=100.0)
        servers = servers_of(2, disk=250.0)
        counts = np.ones(4, dtype=int)
        placement, shortfall = assign_copies_randomly(cat, counts, servers, rng)
        assert shortfall == 0
        used = sum(s.storage_used for s in servers)
        assert used == pytest.approx(400.0)
        for s in servers:
            assert s.storage_used <= s.disk_capacity

    def test_shortfall_reported_when_disks_full(self, rng):
        cat = catalog_of(5, size_mb=100.0)     # 100 Mb each
        servers = servers_of(2, disk=150.0)    # 1 copy per server max... 1.5
        counts = np.full(5, 2)                 # want 10, only ~2 fit
        placement, shortfall = assign_copies_randomly(cat, counts, servers, rng)
        assert shortfall > 0
        assert placed_copies(placement) + shortfall == 10

    def test_replica_consistency_with_server_holdings(self, rng):
        cat = catalog_of(6)
        servers = servers_of(3)
        counts = np.full(6, 2)
        placement, _ = assign_copies_randomly(cat, counts, servers, rng)
        for vid in range(6):
            for sid in placement.holders(vid):
                assert servers[sid].holds(vid)

    def test_count_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            assign_copies_randomly(
                catalog_of(3), np.ones(4, dtype=int), servers_of(2), rng
            )

    def test_large_videos_placed_first(self, rng):
        """First-fit-decreasing: a big video must not be squeezed out by
        small ones placed earlier."""
        videos = (
            Video(0, length=10.0, view_bandwidth=1.0),   # 10 Mb
            Video(1, length=990.0, view_bandwidth=1.0),  # 990 Mb
        )
        cat = VideoCatalog(videos=videos)
        servers = servers_of(1, disk=1000.0)
        placement, shortfall = assign_copies_randomly(
            cat, np.ones(2, dtype=int), servers, rng
        )
        assert shortfall == 0
        assert placement.copies(1) == 1



class TestLayoutReplayAcrossBuilds:
    @staticmethod
    def built(config):
        sim = Simulation(config)
        result = sim.placement_result
        return (
            [result.placement.holders(vid) for vid in range(len(sim.catalog))],
            result.requested_copies.tolist(),
            result.shortfall,
            [list(server.holdings) for server in sim.servers],
        )

    def test_a_run_that_mutates_its_map_leaks_nothing(self):
        """chaos_elastic changes its map mid-run (a server joins and is
        drained, crashes hit); the next build of the same config replays
        the layout and must not see any of that."""
        config = load_scenario(REPO / "scenarios" / "chaos_elastic.json").config
        capacity._LAYOUTS.clear()
        sim = Simulation(config)
        sim.run()
        run_map = sim.placement_result.placement
        assert run_map.version > 0
        # The run's changes happen to cancel out by its end; leave one
        # that does not.
        run_map.remove_holder(0, run_map.holders(0)[0])
        replayed = self.built(config)
        assert run_map.holders(0) != replayed[0][0]
        assert len(capacity._LAYOUTS) == 1
        capacity._LAYOUTS.clear()
        assert replayed == self.built(config)

    def test_memo_is_bounded(self):
        capacity._LAYOUTS.clear()
        for seed in range(capacity.LAYOUT_SLOTS + 3):
            assign_copies_randomly(
                catalog_of(4), np.ones(4, dtype=int), servers_of(2),
                np.random.default_rng(seed),
            )
        assert len(capacity._LAYOUTS) == capacity.LAYOUT_SLOTS
