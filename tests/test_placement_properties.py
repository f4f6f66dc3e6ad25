"""Property-based tests for the placement layer (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.server import DataServer
from repro.placement import PLACEMENTS, capacity
from repro.placement.base import clamp_counts_to_total
from repro.placement.predictive import proportional_counts
from repro.workload.catalog import Video, VideoCatalog
from repro.workload.zipf import ZipfPopularity


@st.composite
def placement_problem(draw):
    """A random (catalog, servers, budget) instance with ample disks."""
    n_videos = draw(st.integers(min_value=1, max_value=60))
    n_servers = draw(st.integers(min_value=1, max_value=8))
    theta = draw(st.floats(min_value=-1.5, max_value=1.0))
    avg_copies = draw(
        st.floats(min_value=1.0, max_value=float(n_servers))
    )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    videos = tuple(
        Video(i, length=draw(st.floats(min_value=10.0, max_value=100.0)),
              view_bandwidth=1.0)
        for i in range(n_videos)
    )
    catalog = VideoCatalog(videos=videos)
    total_copies = int(round(avg_copies * n_videos))
    total_copies = max(n_videos, min(total_copies, n_videos * n_servers))
    return catalog, n_servers, total_copies, theta, seed


class TestPolicyProperties:
    @settings(max_examples=40, deadline=None)
    @given(placement_problem(), st.sampled_from(sorted(PLACEMENTS)))
    def test_placement_respects_structure(self, problem, policy_name):
        catalog, n_servers, total_copies, theta, seed = problem
        servers = [
            DataServer(i, bandwidth=100.0, disk_capacity=1e9)
            for i in range(n_servers)
        ]
        popularity = ZipfPopularity(len(catalog), theta)
        rng = np.random.default_rng(seed)
        result = PLACEMENTS[policy_name]().allocate(
            catalog, popularity, servers, total_copies, rng
        )
        placement = result.placement
        # With ample disks there is never a shortfall…
        assert result.shortfall == 0
        # …every video is covered, replicas sit on distinct live servers
        # that really hold them, and per-server disk accounting matches.
        for vid in range(len(catalog)):
            holders = placement.holders(vid)
            assert len(holders) >= 1
            assert len(set(holders)) == len(holders)
            for sid in holders:
                assert servers[sid].holds(vid)
        for server in servers:
            expected = sum(
                catalog[vid].size for vid in placement.videos_on(server.server_id)
            )
            assert server.storage_used == pytest.approx(expected)

    @settings(max_examples=40, deadline=None)
    @given(placement_problem())
    def test_even_total_exact(self, problem):
        catalog, n_servers, total_copies, theta, seed = problem
        servers = [
            DataServer(i, bandwidth=100.0, disk_capacity=1e9)
            for i in range(n_servers)
        ]
        rng = np.random.default_rng(seed)
        result = PLACEMENTS["even"]().allocate(
            catalog, ZipfPopularity(len(catalog), theta), servers,
            total_copies, rng,
        )
        placed = result.placement.total_copies()
        # Even placement may cap the base at n_servers but otherwise
        # hits the budget exactly.
        assert placed <= total_copies
        assert placed >= len(catalog)


class TestCountHelpers:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=-1.5, max_value=1.0),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=1.0, max_value=6.0),
        st.integers(min_value=0, max_value=1000),
    )
    def test_proportional_counts_bounds(self, n, theta, n_servers, avg, seed):
        total = int(round(avg * n))
        total = max(n, min(total, n * n_servers))
        pop = ZipfPopularity(n, theta)
        counts = proportional_counts(
            pop.probabilities, total, n_servers, np.random.default_rng(seed)
        )
        assert counts.sum() == total
        assert (counts >= 1).all()
        assert (counts <= n_servers).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=10), min_size=1,
                 max_size=50),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    def test_clamp_counts_invariants(self, counts, total, n_servers, seed):
        arr = np.array(counts, dtype=np.int64)
        assume((arr <= n_servers).all())
        out = clamp_counts_to_total(
            arr, total, n_servers, np.random.default_rng(seed)
        )
        assert (out >= 1).all()
        assert (out <= n_servers).all()
        lo, hi = len(arr), len(arr) * n_servers
        reachable = min(max(total, lo), hi)
        assert out.sum() == reachable


@st.composite
def layout_problem(draw):
    """Sizes, counts, disks and a seed for assign_copies_randomly;
    about half the instances have tight disks, most of which fall short."""
    n_videos = draw(st.integers(min_value=1, max_value=20))
    n_servers = draw(st.integers(min_value=1, max_value=6))
    sizes = draw(st.lists(st.floats(min_value=1.0, max_value=50.0),
                          min_size=n_videos, max_size=n_videos))
    counts = draw(st.lists(st.integers(min_value=1, max_value=n_servers),
                           min_size=n_videos, max_size=n_videos))
    if draw(st.booleans()):  # tight: some replicas may not fit
        disks = draw(st.lists(st.floats(min_value=0.0, max_value=sum(sizes)),
                              min_size=n_servers, max_size=n_servers))
    else:  # each disk holds the whole catalog
        disks = [sum(sizes)] * n_servers
    seed = draw(st.integers(min_value=0, max_value=2**31))
    catalog = VideoCatalog(videos=tuple(
        Video(i, length=size, view_bandwidth=1.0)
        for i, size in enumerate(sizes)
    ))
    return catalog, np.array(counts, dtype=np.int64), disks, seed


def place_layout(catalog, counts, disks, rng):
    """One placement on fresh servers, and everything it leaves behind."""
    servers = [
        DataServer(i, bandwidth=100.0, disk_capacity=disk)
        for i, disk in enumerate(disks)
    ]
    placement, shortfall = capacity.assign_copies_randomly(
        catalog, counts, servers, rng
    )
    return (
        [placement.holders(vid) for vid in range(len(catalog))],
        [list(server.holdings) for server in servers],
        [server.storage_used for server in servers],
        shortfall,
        rng.random(),
    )


class TestLayoutMemo:
    @settings(max_examples=60, deadline=None)
    @given(layout_problem(), st.sampled_from(["disk", "count", "rng"]))
    def test_a_hit_is_a_miss(self, problem, changed):
        catalog, counts, disks, seed = problem
        capacity._LAYOUTS.clear()
        miss = place_layout(catalog, counts, disks, np.random.default_rng(seed))
        assert len(capacity._LAYOUTS) == 1
        hit = place_layout(catalog, counts, disks, np.random.default_rng(seed))
        assert len(capacity._LAYOUTS) == 1
        assert hit == miss

        # Change one part of the key: the call misses, and matches a
        # call made with the memo cleared.
        rng = np.random.default_rng(seed)
        if changed == "disk":
            disks = [disks[0] + 1.0, *disks[1:]]
        elif changed == "count":
            counts = counts.copy()
            counts[0] += 1
        else:
            rng.random()
        state = rng.bit_generator.state
        other = place_layout(catalog, counts, disks, rng)
        assert len(capacity._LAYOUTS) == 2
        capacity._LAYOUTS.clear()
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state
        assert place_layout(catalog, counts, disks, rng) == other
