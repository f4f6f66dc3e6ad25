"""Unit tests for the data server model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profile import ServerProfile
from repro.cluster.request import EPS_MB
from repro.cluster.server import DataServer, StorageError, least_loaded

from conftest import make_request, make_video


def server(bandwidth=10.0, disk=1000.0, server_id=0):
    return DataServer(server_id, bandwidth=bandwidth, disk_capacity=disk)


class TestStorage:
    def test_store_and_hold(self):
        s = server()
        v = make_video(video_id=3)
        s.store_replica(v)
        assert s.holds(3)
        assert s.storage_used == pytest.approx(v.size)

    def test_store_is_idempotent(self):
        s = server()
        v = make_video(video_id=3)
        s.store_replica(v)
        s.store_replica(v)
        assert s.storage_used == pytest.approx(v.size)

    def test_store_over_capacity_raises(self):
        s = server(disk=50.0)
        with pytest.raises(StorageError):
            s.store_replica(make_video(video_id=0, length=100.0))  # 100 Mb

    def test_drop_replica_frees_space(self):
        s = server()
        v = make_video(video_id=1)
        s.store_replica(v)
        s.drop_replica(v)
        assert not s.holds(1)
        assert s.storage_used == pytest.approx(0.0)

    def test_can_store_respects_space_and_duplicates(self):
        s = server(disk=150.0)
        v1 = make_video(video_id=0)  # 100 Mb
        assert s.can_store(v1)
        s.store_replica(v1)
        assert not s.can_store(v1)  # already here
        assert not s.can_store(make_video(video_id=1))  # only 50 Mb free
        assert s.can_store(make_video(video_id=2, length=40.0))

    def test_storage_free(self):
        s = server(disk=500.0)
        s.store_replica(make_video(video_id=0))
        assert s.storage_free == pytest.approx(400.0)


class TestBandwidthAccounting:
    def test_has_slot_until_full(self):
        s = server(bandwidth=3.0)
        s.store_replica(make_video(video_id=0))
        reqs = [make_request(video=make_video(video_id=0)) for _ in range(3)]
        for r in reqs:
            assert s.has_slot_for(r)
            s.attach(r)
        assert not s.has_slot_for(make_request(video=make_video(video_id=0)))

    def test_slot_is_a_function_of_view_bandwidth(self):
        s = server(bandwidth=3.0)
        s.store_replica(make_video(video_id=0))
        s.attach(make_request(video=make_video(video_id=0)))  # 1 of 3 Mb/s
        assert s.has_slot(2.0) and not s.has_slot(2.5)
        wide = make_request(video=make_video(video_id=0, view_bandwidth=2.5))
        assert not s.has_slot_for(wide)
        s.accepting = False
        assert not s.has_slot(1.0)

    def test_reserved_tracks_attach_detach(self):
        s = server(bandwidth=10.0)
        s.store_replica(make_video(video_id=0))
        r1 = make_request(video=make_video(video_id=0))
        r2 = make_request(video=make_video(video_id=0))
        s.attach(r1)
        s.attach(r2)
        assert s.reserved_bandwidth == pytest.approx(2.0)
        s.detach(r1)
        assert s.reserved_bandwidth == pytest.approx(1.0)
        assert s.active_count == 1

    def test_down_server_has_no_slots(self):
        s = server()
        s.store_replica(make_video(video_id=0))
        s.fail()
        assert not s.has_slot_for(make_request(video=make_video(video_id=0)))


VIEW_RATES = (1.0, 1.5, 2.0, 3.0)


@st.composite
def holder_clusters(draw):
    """Servers 0..n-1 in every state the slot test reads — down, not
    accepting, link-degraded, calibrated, at equal loads — plus an
    ascending holder-id list that may name ids absent from the map."""
    servers = {}
    for sid in range(draw(st.integers(min_value=1, max_value=6))):
        s = server(bandwidth=draw(st.sampled_from((3.0, 4.5, 6.0))),
                   disk=1e9, server_id=sid)
        s.store_replica(make_video(video_id=0))
        if draw(st.booleans()):
            s.apply_profile(ServerProfile(
                server_id=sid, bandwidth=draw(st.sampled_from((2.0, 5.0))),
            ))
        for vb in draw(st.lists(st.sampled_from(VIEW_RATES), max_size=4)):
            s.attach(make_request(
                video=make_video(video_id=0, view_bandwidth=vb)
            ))
        scale = draw(st.sampled_from((1.0, 0.5, 0.75)))
        if scale < 1.0:
            s.set_link_scale(scale)
        s.accepting = draw(st.sampled_from((True, True, False)))
        if draw(st.sampled_from((False, False, True))):
            s.fail()
        servers[sid] = s
    holder_ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=7))))
    exclude = draw(st.none() | st.integers(min_value=0, max_value=7))
    return servers, holder_ids, exclude, draw(st.sampled_from(VIEW_RATES))


class TestLeastLoadedScan:
    """The one "which holder takes this stream" scan against the rule
    as the paper states it, and the slot test against its properties."""

    @settings(max_examples=300, deadline=None)
    @given(holder_clusters())
    def test_scan_is_the_readable_rule(self, drawn):
        servers, holder_ids, exclude, vb = drawn
        for s in servers.values():
            assert s.has_slot(vb) == (
                s.up and s.accepting
                and s.reserved_bandwidth + vb <= s.bandwidth + EPS_MB
            )
        holders = [servers[sid] for sid in holder_ids if sid in servers]
        expected = min(
            (s for s in holders
             if s.has_slot(vb) and s.server_id != exclude),
            key=lambda s: (len(s.active), s.server_id),
            default=None,
        )
        assert least_loaded(servers, holder_ids, vb, exclude) is expected


class TestActiveSet:
    def test_attach_requires_replica(self):
        s = server()
        with pytest.raises(ValueError):
            s.attach(make_request(video=make_video(video_id=9)))

    def test_attach_sets_server_id(self):
        s = server(server_id=4)
        s.store_replica(make_video(video_id=0))
        r = make_request(video=make_video(video_id=0))
        s.attach(r)
        assert r.server_id == 4

    def test_double_attach_raises(self):
        s = server()
        s.store_replica(make_video(video_id=0))
        r = make_request(video=make_video(video_id=0))
        s.attach(r)
        with pytest.raises(ValueError):
            s.attach(r)

    def test_detach_unknown_raises(self):
        s = server()
        with pytest.raises(ValueError):
            s.detach(make_request())

    def test_iteration_is_insertion_ordered(self):
        s = server(bandwidth=100.0)
        s.store_replica(make_video(video_id=0))
        reqs = [make_request(video=make_video(video_id=0)) for _ in range(5)]
        for r in reqs:
            s.attach(r)
        assert list(s.iter_active()) == reqs


class TestFailure:
    def test_fail_returns_orphans_and_clears(self):
        s = server(bandwidth=100.0)
        s.store_replica(make_video(video_id=0))
        reqs = [make_request(video=make_video(video_id=0)) for _ in range(3)]
        for r in reqs:
            s.attach(r)
        orphans = s.fail()
        assert orphans == reqs
        assert s.active_count == 0
        assert s.reserved_bandwidth == 0.0
        assert not s.up

    def test_restore_keeps_holdings(self):
        s = server()
        s.store_replica(make_video(video_id=0))
        s.fail()
        s.restore()
        assert s.up
        assert s.holds(0)


class TestValidation:
    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DataServer(0, bandwidth=0.0, disk_capacity=10.0)

    def test_negative_disk_rejected(self):
        with pytest.raises(ValueError):
            DataServer(0, bandwidth=1.0, disk_capacity=-1.0)
