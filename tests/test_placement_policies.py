"""Unit tests for the placement policies (even / predictive / partial)."""

import numpy as np
import pytest

from repro.cluster.server import DataServer
from repro.placement import PLACEMENTS
from repro.placement.even import EvenPlacement
from repro.placement.partial import PartialPredictivePlacement
from repro.placement.predictive import PredictivePlacement, proportional_counts
from repro.workload.catalog import Video, VideoCatalog
from repro.workload.zipf import ZipfPopularity


def catalog_of(n, size_mb=100.0):
    return VideoCatalog(
        videos=tuple(Video(i, length=size_mb, view_bandwidth=1.0) for i in range(n))
    )


def servers_of(n, disk=100_000.0):
    return [DataServer(i, bandwidth=100.0, disk_capacity=disk) for i in range(n)]


class TestEvenPlacement:
    def test_counts_differ_by_at_most_one(self, rng):
        cat = catalog_of(10)
        counts = EvenPlacement().copy_counts(
            cat, ZipfPopularity(10, 0.0), total_copies=22, n_servers=5, rng=rng
        )
        assert counts.sum() == 22
        assert set(counts.tolist()) <= {2, 3}

    def test_oblivious_to_popularity(self, rng):
        """The defining property: counts do not depend on θ."""
        cat = catalog_of(10)
        a = EvenPlacement().copy_counts(
            cat, ZipfPopularity(10, -1.5), 22, 5, np.random.default_rng(1)
        )
        b = EvenPlacement().copy_counts(
            cat, ZipfPopularity(10, 1.0), 22, 5, np.random.default_rng(1)
        )
        assert np.array_equal(a, b)

    def test_rounding_chooses_random_videos(self):
        cat = catalog_of(10)
        pop = ZipfPopularity(10, 0.0)
        lucky_sets = set()
        for seed in range(5):
            counts = EvenPlacement().copy_counts(
                cat, pop, 22, 5, np.random.default_rng(seed)
            )
            lucky_sets.add(tuple(np.flatnonzero(counts == 3)))
        assert len(lucky_sets) > 1  # not always the same two videos

    def test_too_few_copies_rejected(self, rng):
        with pytest.raises(ValueError):
            EvenPlacement().copy_counts(
                catalog_of(10), ZipfPopularity(10, 0.0), 5, 5, rng
            )

    def test_base_capped_at_server_count(self, rng):
        counts = EvenPlacement().copy_counts(
            catalog_of(2), ZipfPopularity(2, 0.0), 20, n_servers=3, rng=rng
        )
        assert (counts <= 3).all()


class TestProportionalCounts:
    def test_sums_to_total(self, rng):
        pop = ZipfPopularity(20, 0.0)
        counts = proportional_counts(pop.probabilities, 44, 10, rng)
        assert counts.sum() == 44
        assert (counts >= 1).all()
        assert (counts <= 10).all()

    def test_monotone_in_popularity(self, rng):
        pop = ZipfPopularity(20, -1.0)
        counts = proportional_counts(pop.probabilities, 44, 10, rng)
        # The hottest video should get at least as many copies as the
        # coldest (strictly more under this skew).
        assert counts[0] > counts[-1]

    def test_uniform_demand_gives_even_counts(self, rng):
        pop = ZipfPopularity(10, 1.0)
        counts = proportional_counts(pop.probabilities, 22, 5, rng)
        assert set(counts.tolist()) <= {2, 3}


class TestPredictivePlacement:
    def test_every_video_gets_a_copy(self, rng):
        pop = ZipfPopularity(50, -1.5)  # extreme skew
        counts = PredictivePlacement().copy_counts(
            catalog_of(50), pop, 110, 20, rng
        )
        assert (counts >= 1).all()
        assert counts.sum() == 110

    def test_allocate_end_to_end(self, rng):
        cat = catalog_of(10)
        servers = servers_of(5)
        result = PredictivePlacement().allocate(
            cat, ZipfPopularity(10, 0.0), servers, 22, rng
        )
        assert result.shortfall == 0
        assert result.placement.total_copies() == 22
        assert result.requested_copies.sum() == 22


class TestPartialPredictive:
    def test_budget_preserved(self, rng):
        cat = catalog_of(100)
        pop = ZipfPopularity(100, -1.0)
        counts = PartialPredictivePlacement().copy_counts(cat, pop, 220, 10, rng)
        assert counts.sum() == 220

    def test_top_videos_boosted(self, rng):
        cat = catalog_of(100)
        pop = ZipfPopularity(100, -1.0)
        policy = PartialPredictivePlacement(top_fraction=0.05, boost=2)
        counts = policy.copy_counts(cat, pop, 220, 10, rng)
        even = 220 // 100
        for vid in range(5):  # top 5 %
            assert counts[vid] >= even + 2

    def test_between_even_and_predictive_in_skew(self, rng):
        """Partial's count vector is mildly skewed: less spread than the
        oracle, more than even."""
        cat = catalog_of(100)
        pop = ZipfPopularity(100, -1.0)
        even = EvenPlacement().copy_counts(cat, pop, 220, 10, np.random.default_rng(0))
        partial = PartialPredictivePlacement().copy_counts(
            cat, pop, 220, 10, np.random.default_rng(0)
        )
        pred = PredictivePlacement().copy_counts(
            cat, pop, 220, 10, np.random.default_rng(0)
        )
        assert np.std(even) < np.std(partial) < np.std(pred)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartialPredictivePlacement(top_fraction=0.0)
        with pytest.raises(ValueError):
            PartialPredictivePlacement(boost=0)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(PLACEMENTS) == {"even", "predictive", "partial"}

    @pytest.mark.parametrize("name", ["even", "predictive", "partial"])
    def test_each_registered_policy_allocates(self, name, rng):
        cat = catalog_of(10)
        servers = servers_of(5)
        result = PLACEMENTS[name]().allocate(
            cat, ZipfPopularity(10, 0.0), servers, 22, rng
        )
        assert result.placement.total_copies() > 0
        # Every video reachable:
        for vid in range(10):
            assert result.placement.copies(vid) >= 1
