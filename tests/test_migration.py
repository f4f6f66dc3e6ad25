"""Unit tests for DRM chain search and execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profile import ServerProfile
from repro.cluster.server import DataServer
from repro.core import migration
from repro.core.admission import AdmissionOutcome
from repro.core.migration import (
    RESCUE_POLICY,
    MigrationPolicy,
    MigrationStep,
    _eligible,
    find_migration_chain,
)
from repro.placement.base import PlacementMap

from conftest import build_micro_cluster, make_client, make_request, make_video


class TestMigrationPolicy:
    def test_factories(self):
        assert not MigrationPolicy.disabled().enabled
        p = MigrationPolicy.paper_default()
        assert p.enabled and p.max_chain_length == 1
        assert p.max_hops_per_request == 1
        u = MigrationPolicy.unlimited_hops()
        assert u.max_hops_per_request is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationPolicy(max_chain_length=0)
        with pytest.raises(ValueError):
            MigrationPolicy(max_hops_per_request=-1)
        with pytest.raises(ValueError):
            MigrationPolicy(switch_delay=-1.0)


def chain_cluster(max_chain=1, switch_delay=0.0, hops=None):
    """Three servers, bw=1 each.  video 0 on {0,1}, video 1 on {1,2},
    video 2 on {0}.  Chains of length 2 are possible: to free server 0
    (for video 2), move its video-0 stream to server 1; if server 1 is
    full, first move server 1's video-1 stream to server 2.
    """
    videos = [make_video(video_id=i) for i in range(3)]
    return build_micro_cluster(
        server_specs=[(1.0, 1e9)] * 3,
        videos=videos,
        holders={0: [0, 1], 1: [1, 2], 2: [0]},
        migration=MigrationPolicy(
            enabled=True,
            max_chain_length=max_chain,
            max_hops_per_request=hops,
            switch_delay=switch_delay,
        ),
    )


class TestChainSearch:
    def test_direct_chain_found(self):
        cluster = chain_cluster()
        cluster.submit(0)  # server 0 full
        chain = find_migration_chain(
            2, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=0.0,
        )
        assert chain is not None
        assert len(chain) == 1
        assert chain[0].source_id == 0
        assert chain[0].target_id == 1

    def test_no_chain_when_disabled(self):
        cluster = chain_cluster()
        cluster.submit(0)
        assert find_migration_chain(
            2, cluster.servers, cluster.placement,
            MigrationPolicy.disabled(), now=0.0,
        ) is None

    def test_chain_length_one_fails_when_two_needed(self):
        cluster = chain_cluster(max_chain=1)
        cluster.submit(0)  # video 0 → server 0 (tie, lowest id)
        cluster.submit(1)  # video 1 → server 1 or 2: both empty → 1
        # Server 0 full (video-0 stream), server 1 full (video-1 stream).
        # Freeing server 0 needs its stream → server 1 (full) → chain 2.
        chain = find_migration_chain(
            2, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=0.0,
        )
        assert chain is None

    def test_chain_length_two_succeeds(self):
        cluster = chain_cluster(max_chain=2)
        a, _ = cluster.submit(0)
        b, _ = cluster.submit(1)
        chain = find_migration_chain(
            2, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=0.0,
        )
        assert chain is not None
        assert len(chain) == 2
        # Execution order: free server 1 first (move b→2), then a→1.
        assert chain[0].request is b
        assert chain[0].target_id == 2
        assert chain[1].request is a
        assert chain[1].target_id == 1

    def test_admission_uses_long_chain(self):
        cluster = chain_cluster(max_chain=2)
        a, _ = cluster.submit(0)
        b, _ = cluster.submit(1)
        newcomer, outcome = cluster.submit(2)
        assert outcome is AdmissionOutcome.ACCEPTED_WITH_MIGRATION
        assert newcomer.server_id == 0
        assert a.server_id == 1
        assert b.server_id == 2
        assert cluster.metrics.migrations == 2
        assert cluster.metrics.migration_chains_found == 1
        cluster.admission.metrics.sanity_check()

    def test_chain_length_three(self):
        """A three-hop displacement across a ring of four servers."""
        # video i lives on servers {i, i+1}; video 3 only on {0}.
        videos = [make_video(video_id=i) for i in range(4)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9)] * 4,
            videos=videos,
            holders={0: [0, 1], 1: [1, 2], 2: [2, 3], 3: [0]},
            migration=MigrationPolicy(
                enabled=True, max_chain_length=3, max_hops_per_request=1,
            ),
        )
        a, _ = cluster.submit(0)   # → server 0
        b, _ = cluster.submit(1)   # → server 1
        c, _ = cluster.submit(2)   # → server 2
        # Server 3 is the only free node; admitting video 3 (held only
        # by full server 0) needs a → 1, which needs b → 2, which needs
        # c → 3: chain length 3.
        newcomer, outcome = cluster.submit(3)
        assert outcome is AdmissionOutcome.ACCEPTED_WITH_MIGRATION
        assert newcomer.server_id == 0
        assert (a.server_id, b.server_id, c.server_id) == (1, 2, 3)
        assert cluster.metrics.migrations == 3
        cluster.metrics.sanity_check()

    def test_chain_length_two_insufficient_for_three_hop_problem(self):
        videos = [make_video(video_id=i) for i in range(4)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9)] * 4,
            videos=videos,
            holders={0: [0, 1], 1: [1, 2], 2: [2, 3], 3: [0]},
            migration=MigrationPolicy(
                enabled=True, max_chain_length=2, max_hops_per_request=1,
            ),
        )
        cluster.submit(0)
        cluster.submit(1)
        cluster.submit(2)
        _, outcome = cluster.submit(3)
        assert outcome is AdmissionOutcome.REJECTED

    def test_down_target_excluded(self):
        cluster = chain_cluster()
        cluster.submit(0)
        cluster.servers[1].fail()
        chain = find_migration_chain(
            2, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=0.0,
        )
        assert chain is None

    def test_paused_stream_not_movable(self):
        cluster = chain_cluster()
        a, _ = cluster.submit(0)
        a.paused_until = 10.0
        chain = find_migration_chain(
            2, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=0.0,
        )
        assert chain is None


def reference_chain_search(
    video_id, servers, placement, policy, now, slot_test=DataServer.has_slot
):
    """The plain depth-limited DFS the search was before it shared work
    between paths: every visit rebuilds the server's eligible list and
    every stream recurses into its targets.  Kept as the oracle."""
    if not policy.enabled:
        return None
    entry_holders = [
        servers[sid]
        for sid in placement.holders(video_id)
        if sid in servers and servers[sid].up and servers[sid].accepting
    ]
    entry_holders.sort(key=lambda s: (s.active_count, s.server_id))
    for holder in entry_holders:
        chain = _reference_free_slot(
            holder, servers, placement, policy, now, depth=1,
            visited={holder.server_id}, slot_test=slot_test,
        )
        if chain is not None:
            return chain
    return None


def _reference_free_slot(
    server, servers, placement, policy, now, depth, visited, slot_test
):
    if depth > policy.max_chain_length:
        return None
    movable = [
        r for r in server.iter_active() if _eligible(r, policy, now)
    ]
    movable.sort(key=lambda r: r.request_id)
    # Pass 1: a direct move (keeps chains as short as possible).
    for r in movable:
        for tid in placement.holders(r.video.video_id):
            if tid == server.server_id or tid in visited or tid not in servers:
                continue
            target = servers[tid]
            if target.up and slot_test(target, r.view_bandwidth):
                return [MigrationStep(r, server.server_id, tid)]
    # Pass 2: recurse — displace a stream from a full target first.
    if depth < policy.max_chain_length:
        for r in movable:
            for tid in placement.holders(r.video.video_id):
                if (
                    tid == server.server_id
                    or tid in visited
                    or tid not in servers
                    or not servers[tid].up
                    or not servers[tid].accepting
                ):
                    continue
                sub = _reference_free_slot(
                    servers[tid],
                    servers,
                    placement,
                    policy,
                    now,
                    depth + 1,
                    visited | {tid},
                    slot_test=slot_test,
                )
                if sub is not None:
                    return sub + [MigrationStep(r, server.server_id, tid)]
    return None


def _strict_slot_test(server, view_bandwidth):
    """A pure custom predicate that depends on both arguments — and not
    on ``server.up``, which the search has to gate on itself."""
    return (
        server.reserved_bandwidth + view_bandwidth <= server.bandwidth
        and (server.server_id + int(view_bandwidth)) % 3 != 0
    )


NOW = 10.0


@st.composite
def search_cases(draw):
    """A random micro-cluster frozen at ``NOW``, mostly full, plus a
    policy, a slot test and the video to search for.

    Half the draws are *saturated*: every up server is filled to
    ``room == 0`` (so no server is open for any bandwidth), except at
    most one that keeps 1.0 spare — open for the 1.0 streams, closed
    for the 2.0 ones.  Half put an ineligible (paused) stream, the
    lowest request id on its server, in front of a twin of the same
    video, so both point at the same targets."""
    n_servers = draw(st.integers(3, 6))
    slots = draw(st.lists(st.integers(1, 6), min_size=n_servers,
                          max_size=n_servers))
    n_videos = draw(st.integers(2, 8))
    videos = [
        make_video(video_id=v, view_bandwidth=draw(st.sampled_from([1.0, 2.0])))
        for v in range(n_videos)
    ]
    holders = {
        v: draw(st.lists(st.integers(0, n_servers - 1), min_size=2,
                         max_size=3, unique=True))
        for v in range(n_videos)
    }
    policy = MigrationPolicy(
        enabled=True,
        max_chain_length=draw(st.sampled_from([1, 2, 3])),
        max_hops_per_request=draw(st.sampled_from([0, 1, 1, None, None])),
        switch_delay=draw(st.sampled_from([0.0, 5.0])),
    )
    cluster = build_micro_cluster(
        server_specs=[(float(n), 1e9) for n in slots],
        videos=videos, holders=holders, migration=policy,
    )
    saturated = draw(st.booleans())
    spare_sid = draw(st.sampled_from([None, *range(n_servers)]))
    paused_front = draw(st.booleans())
    streams = []  # (server, request), in request-id order
    for sid, server in cluster.servers.items():
        state = draw(st.sampled_from(["up"] * 8 + ["down", "draining"]))
        if state == "down":
            server.up = False
            continue
        server.accepting = state == "up"
        held = sorted(server.holdings)
        if saturated:
            room = float(slots[sid]) - (sid == spare_sid)
        else:
            room = float(slots[sid]) - draw(st.sampled_from([0, 0, 0, 0, 1]))
        twin_of = None
        first = True
        while held:
            if saturated:  # keep drawing until nothing held fits
                held = [v for v in held if videos[v].view_bandwidth <= room]
                if not held:
                    break
            video = twin_of or videos[draw(st.sampled_from(held))]
            if video.view_bandwidth > room:
                break
            room -= video.view_bandwidth
            r = make_request(video=video)
            r.hops = draw(st.sampled_from([0, 0, 0, 1, 2]))
            if draw(st.integers(0, 9)) == 0:
                r.paused_until = NOW + 1.0
            if twin_of is not None:
                r.hops, r.paused_until, twin_of = 0, 0.0, None
            elif paused_front and first:
                r.paused_until, twin_of = NOW + 1.0, video
            first = False
            # Buffer fill as of the stream's last sync, and a boost
            # since then that only a projection to NOW can see.
            vb = video.view_bandwidth
            r.last_sync = NOW - draw(st.sampled_from([0.0, 4.0]))
            r.rate = vb * draw(st.sampled_from([1.0, 2.0]))
            r.bytes_sent = (
                vb * r.last_sync + vb * draw(st.sampled_from([0.0, 2.0, 8.0, 8.0]))
            )
            streams.append((server, r))
    # Insertion order is not request-id order; the search must sort.
    for i in draw(st.permutations(range(len(streams)))):
        server, r = streams[i]
        server.attach(r)
    servers = dict(cluster.servers)
    if draw(st.integers(0, 7)) == 0:  # a departed member still in the map
        del servers[draw(st.integers(0, n_servers - 1))]
    slot_test = draw(st.sampled_from([DataServer.has_slot, _strict_slot_test]))
    video_id = draw(st.integers(0, n_videos - 1))
    return video_id, servers, cluster.placement, policy, slot_test


def _triples(chain):
    if chain is None:
        return None
    return [(s.request.request_id, s.source_id, s.target_id) for s in chain]


class TestSharedSearchAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(search_cases())
    def test_same_chain_as_plain_dfs(self, case):
        video_id, servers, placement, policy, slot_test = case
        got = find_migration_chain(
            video_id, servers, placement, policy, NOW, slot_test=slot_test
        )
        want = reference_chain_search(
            video_id, servers, placement, policy, NOW, slot_test=slot_test
        )
        assert _triples(got) == _triples(want)

    def test_each_server_walked_once_per_search(self, monkeypatch):
        """Saturated 5 x 33 cluster, chain length 2, the only open
        server three moves from either entry holder: the failed search
        looks at each stream once and enters each server at most once
        per entry holder, however many streams point at it."""
        pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
        videos = [make_video(video_id=v) for v in range(len(pairs))]
        policy = MigrationPolicy(
            enabled=True, max_chain_length=2, max_hops_per_request=None
        )
        cluster = build_micro_cluster(
            server_specs=[(33.0, 1e9)] * 5,
            videos=videos,
            holders={v: list(p) for v, p in enumerate(pairs)},
            migration=policy,
        )
        for sid, server in cluster.servers.items():
            held = sorted(server.holdings)
            for i in range(32 if sid == 4 else 33):
                server.attach(make_request(video=videos[held[i % len(held)]]))
        n_streams = sum(s.active_count for s in cluster.servers.values())

        calls = {"_eligible": 0, "_free_slot": 0}

        def counted(name):
            real = getattr(migration, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(migration, name, wrapper)

        counted("_eligible")
        counted("_free_slot")
        # Video 0 lives on {0, 1}: two entry holders; 0 -> 2 -> 3 -> 4.
        assert find_migration_chain(
            0, cluster.servers, cluster.placement, policy, NOW
        ) is None
        assert 0 < calls["_eligible"] <= n_streams
        assert 2 <= calls["_free_slot"] <= 2 * len(cluster.servers)
        longer = MigrationPolicy(
            enabled=True, max_chain_length=3, max_hops_per_request=None
        )
        chain = find_migration_chain(
            0, cluster.servers, cluster.placement, longer, NOW
        )
        assert [(s.source_id, s.target_id) for s in chain] == [
            (3, 4), (2, 3), (0, 2),
        ]

    def test_saturated_cluster_costs_one_probe_per_server(self, monkeypatch):
        """7 x 33 ring, two view bandwidths, no slot anywhere, chain
        length 1: the failed search asks each server once per bandwidth
        and never gets as far as a stream's eligibility."""
        n = 7
        videos = [
            make_video(video_id=v, view_bandwidth=1.0 + v // n)
            for v in range(2 * n)
        ]
        policy = MigrationPolicy.unlimited_hops()
        cluster = build_micro_cluster(
            server_specs=[(33.0, 1e9)] * n,
            videos=videos,
            holders={v: [v % n, (v + 1) % n] for v in range(2 * n)},
            migration=policy,
        )
        for server in cluster.servers.values():
            held = sorted(server.holdings)
            for i in range(11):  # 11 x (1.0 + 2.0) == 33
                server.attach(make_request(video=videos[held[i % 2]]))
                server.attach(make_request(video=videos[held[2 + i % 2]]))
            assert server.reserved_bandwidth == 33.0
        probes = []

        def counting_slot_test(server, view_bandwidth):
            probes.append((server.server_id, view_bandwidth))
            return server.has_slot(view_bandwidth)

        def no_eligibility_test(*args):
            raise AssertionError("a stream was tested with no open target")

        monkeypatch.setattr(migration, "_eligible", no_eligibility_test)
        assert find_migration_chain(
            0, cluster.servers, cluster.placement, policy, NOW,
            slot_test=counting_slot_test,
        ) is None
        assert 0 < len(probes) <= n * 2
        assert len(set(probes)) == len(probes)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_chain_as_plain_dfs_on_a_mutating_cluster(self, data):
        """One cluster, a script of the steps that can (and cannot) turn
        a failed search into a chain, and both searches asked after
        every step — so a certificate left by an earlier step is either
        still true or noticed as stale."""
        draw = data.draw
        n_servers = draw(st.integers(3, 5), label="servers")
        n_videos = draw(st.integers(2, 5), label="videos")
        videos = [
            make_video(video_id=v, view_bandwidth=draw(st.sampled_from([1.0, 2.0])))
            for v in range(n_videos)
        ]
        servers = {
            sid: DataServer(sid, float(draw(st.integers(2, 5))), 1e9)
            for sid in range(n_servers)
        }
        holders = {
            v: draw(st.lists(st.integers(0, n_servers - 1), min_size=1,
                             max_size=3, unique=True))
            for v in range(n_videos)
        }
        for v, sids in holders.items():
            for sid in sids:
                servers[sid].store_replica(videos[v])
        placement = PlacementMap(holders)
        policies = [
            MigrationPolicy(
                enabled=True,
                max_chain_length=draw(st.sampled_from([1, 2, 3])),
                max_hops_per_request=draw(st.sampled_from([0, 1, None, None])),
            ),
            RESCUE_POLICY,
            MigrationPolicy(enabled=True, switch_delay=5.0),  # stores none
        ]
        now = NOW

        def fitting(server):
            return [
                v for v in videos
                if server.holds(v.video_id)
                and server.reserved_bandwidth + v.view_bandwidth
                <= server.bandwidth
            ]

        for server in servers.values():  # fill every server up
            while fitting(server):
                r = make_request(video=draw(st.sampled_from(fitting(server))))
                r.hops = draw(st.sampled_from([0, 0, 1, 2]))
                server.attach(r)
        # Leave room somewhere, or no failed walk would keep anything.
        roomy = servers[draw(st.integers(0, n_servers - 1))]
        if roomy.active_count:
            roomy.detach(draw(st.sampled_from(list(roomy.iter_active()))))

        def streams():
            return [
                (s, r) for s in servers.values() for r in s.iter_active()
            ]

        def step(kind):
            nonlocal now
            sid = draw(st.integers(0, n_servers - 1))
            server = servers[sid]
            if kind == "attach" and server.up and fitting(server):
                server.attach(make_request(
                    video=draw(st.sampled_from(fitting(server)))
                ))
            elif kind == "detach" and streams():
                source, r = draw(st.sampled_from(streams()))
                source.detach(r)
            elif kind == "fail":
                server.fail()
            elif kind == "restore":
                server.restore()
            elif kind == "accepting":
                server.accepting = not server.accepting
            elif kind == "link":
                server.set_link_scale(draw(st.sampled_from([0.5, 1.0])))
            elif kind == "profile":
                server.apply_profile(ServerProfile(
                    server_id=sid,
                    bandwidth=server.nominal_bandwidth
                    * draw(st.sampled_from([0.5, 1.0, 1.5])),
                ))
            elif kind == "add_holder":
                # Mostly onto a server with room: a replica there is a
                # new target for every stream of the video.
                roomy = [s for s in servers.values() if s.has_slot(1.0)]
                if roomy and draw(st.booleans()):
                    server = draw(st.sampled_from(roomy))
                v = draw(st.integers(0, n_videos - 1))
                server.store_replica(videos[v])
                placement.add_holder(v, server.server_id)
            elif kind == "remove_holder":
                v = draw(st.integers(0, n_videos - 1))
                placement.remove_holder(v, sid)
            elif kind == "migrate" and streams():
                source, r = draw(st.sampled_from(streams()))
                targets = [
                    t for t in servers.values()
                    if t is not source and t.up and t.holds(r.video.video_id)
                ]
                if targets:
                    target = draw(st.sampled_from(targets))
                    source.detach(r)
                    r.paused_until = now + draw(st.sampled_from([1.0, 4.0]))
                    r.hops += 1
                    target.attach(r)
            elif kind == "advance":
                now += draw(st.sampled_from([0.5, 2.0, 5.0]))

        slot_tests = [DataServer.has_slot, _strict_slot_test]
        usual = (policies[0], draw(st.sampled_from(slot_tests)))

        def compare():
            # Every video the usual way (so certificates get reused),
            # then one search that may differ in policy, slot test or
            # members (the drain's view).
            queries = [(v, dict(servers), *usual) for v in range(n_videos)]
            view = dict(servers)
            if draw(st.booleans()):
                del view[draw(st.integers(0, n_servers - 1))]
            queries.append((
                draw(st.integers(0, n_videos - 1)), view,
                draw(st.sampled_from(policies)),
                draw(st.sampled_from(slot_tests)),
            ))
            for video_id, view, policy, slot_test in queries:
                args = (video_id, view, placement, policy, now)
                got = find_migration_chain(*args, slot_test=slot_test)
                want = reference_chain_search(*args, slot_test=slot_test)
                assert _triples(got) == _triples(want)

        compare()
        script = draw(st.lists(st.sampled_from([
            "attach", "attach", "detach", "detach", "fail", "restore",
            "accepting", "link", "profile", "add_holder", "remove_holder",
            "migrate", "migrate", "migrate", "advance", "advance", "advance",
        ]), min_size=1, max_size=25), label="script")
        for kind in script:
            step(kind)
            compare()

    @staticmethod
    def wired(holders, fill):
        """Four 2-slot servers, three 1 Mb/s videos on *holders*, and a
        stream per entry of *fill* (server id -> video ids)."""
        videos = [make_video(video_id=v) for v in range(3)]
        servers = {sid: DataServer(sid, 2.0, 1e9) for sid in range(4)}
        for v, sids in holders.items():
            for sid in sids:
                servers[sid].store_replica(videos[v])
        for sid, vids in fill.items():
            for v in vids:
                servers[sid].attach(make_request(video=videos[v]))
        return servers, PlacementMap(holders), videos

    def certificate_cluster(self, open_slot=True):
        """Video 0 lives on {0, 1}, video 1 on {1, 2}, video 2 on
        {2, 3}; servers 0-2 are full and server 3 has one slot — or
        none.  A chain-length-1 search for video 0 fails from both
        holders: their streams only have full targets, and the open
        server is out of reach."""
        return self.wired(
            {0: [0, 1], 1: [1, 2], 2: [2, 3]},
            {0: [0, 0], 1: [0, 1], 2: [1, 2], 3: [2] if open_slot else [2, 2]},
        )

    def walks(self, monkeypatch):
        """Record the entry holder of every walk the search makes."""
        walked = []
        real = migration._free_slot

        def free_slot(server, servers, placement, policy, now, visited, *rest):
            if len(visited) == 1:
                walked.append(server.server_id)
            return real(server, servers, placement, policy, now, visited, *rest)

        monkeypatch.setattr(migration, "_free_slot", free_slot)
        return walked

    def search(self, servers, placement):
        args = (0, servers, placement, RESCUE_POLICY, NOW)
        got = find_migration_chain(*args)
        assert got is None and reference_chain_search(*args) is None

    def test_repeated_failure_walks_nothing(self, monkeypatch):
        servers, placement, _ = self.certificate_cluster()
        walked = self.walks(monkeypatch)
        self.search(servers, placement)
        assert walked == [0, 1]
        self.search(servers, placement)
        assert walked == [0, 1]

    def test_an_attach_on_an_entered_server_walks_its_holder_again(
        self, monkeypatch
    ):
        """A stream on server 0 finishes and an arrival takes its slot:
        only holder 0's walk read server 0."""
        servers, placement, videos = self.certificate_cluster()
        walked = self.walks(monkeypatch)
        self.search(servers, placement)
        server = servers[0]
        server.detach(next(iter(server.iter_active())))
        server.attach(make_request(video=videos[0]))
        self.search(servers, placement)
        assert walked == [0, 1, 0]

    def test_a_new_replica_on_the_open_server_is_found(self, monkeypatch):
        """Server 3 gains a replica of video 1: holder 1's video-1
        stream now has an open target."""
        servers, placement, videos = self.certificate_cluster()
        walked = self.walks(monkeypatch)
        self.search(servers, placement)
        servers[3].store_replica(videos[1])
        placement.add_holder(1, 3)
        args = (0, servers, placement, RESCUE_POLICY, NOW)
        want = _triples(reference_chain_search(*args))
        assert _triples(find_migration_chain(*args)) == want
        assert want[0][1:] == (1, 3) and walked == [0, 1, 0, 1]

    def test_a_detach_on_an_open_server_walks_nothing(self, monkeypatch):
        servers, placement, _ = self.certificate_cluster()
        walked = self.walks(monkeypatch)
        self.search(servers, placement)
        server = servers[3]
        server.detach(next(iter(server.iter_active())))
        self.search(servers, placement)
        assert walked == [0, 1]

    def test_a_certificate_lapses_when_a_switch_gap_ends(self, monkeypatch):
        """Server 1's video-1 stream could move to open server 3 but sits
        in a switch gap until ``NOW + 5``: holder 1's walk fails until
        then, and finds the move from then on."""
        servers, placement, videos = self.wired(
            {0: [0, 1], 1: [1, 2, 3], 2: [2, 3]},
            {0: [0, 0], 1: [0], 2: [1, 2], 3: [2]},
        )
        gapped = make_request(video=videos[1])
        gapped.paused_until = NOW + 5.0  # set before the move attaches it
        servers[1].attach(gapped)
        walked = self.walks(monkeypatch)
        for now, want_walks, want_chain in [
            (NOW, [0, 1], None),
            (NOW + 4.9, [0, 1], None),
            (NOW + 5.0, [0, 1, 1], [(gapped.request_id, 1, 3)]),
        ]:
            args = (0, servers, placement, RESCUE_POLICY, now)
            assert _triples(find_migration_chain(*args)) == want_chain
            assert _triples(reference_chain_search(*args)) == want_chain
            assert walked == want_walks

    def test_a_walk_that_met_no_open_server_stores_nothing(
        self, monkeypatch
    ):
        servers, placement, _ = self.certificate_cluster(open_slot=False)
        walked = self.walks(monkeypatch)
        self.search(servers, placement)
        self.search(servers, placement)
        assert walked == [0, 1, 0, 1]
        assert all(s.drm_certificate is None for s in servers.values())


def _run_counting_searches(config, monkeypatch, search):
    """Run *config* with *search* in place of ``find_migration_chain``
    in the three modules that call it; returns the result, the
    ``request.migrate`` records and the number of searches per caller."""
    from repro import obs
    from repro.core import admission, elastic, failover
    from repro.obs.records import TraceKind
    from repro.simulation import Simulation

    searches = {}
    for module in (admission, failover, elastic):
        name = module.__name__.rsplit(".", 1)[-1]
        searches[name] = 0

        def counted(*args, _name=name, **kwargs):
            searches[_name] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(module, "find_migration_chain", counted)
    tracer = obs.Tracer(capacity=1_000_000)
    result = Simulation(config, tracer=tracer).run()
    assert tracer.dropped == 0
    moves = [r.to_json() for r in tracer.records_of(TraceKind.REQUEST_MIGRATE)]
    return result, moves, searches


#: drm_overload_skew turned into a fault run with switch gaps: admission
#: migrations pause streams for 120 s while crashes and link faults send
#: orphans through rescue searches, which (``switch_delay == 0``) keep
#: certificates over those paused streams.
SWITCH_GAPS_UNDER_FAULTS = {
    "migration": {
        "enabled": True, "max_chain_length": 1,
        "max_hops_per_request": None, "switch_delay": 120.0,
    },
    "staging_fraction": 1.0, "theta": 0.0, "load": 1.6, "duration": 5400.0,
    "faults": {
        "crash": {"mtbf": 300.0, "mttr": 200.0},
        "link": {"mtbf": 300.0, "mttr": 300.0},
    },
}


class TestWholeRunAgainstReference:
    """What the frozen micro-clusters cannot reach: retry resubmits,
    failover rescue under ``RESCUE_POLICY``, link-degradation shedding
    with ``exclude``, the elastic drain's view of the cluster with the
    drainer removed, and certificates carried across a whole run."""

    @pytest.mark.parametrize(
        "path, overrides, callers",
        [
            (
                "bench/workloads/chaos_elastic_churn.json",
                {"duration": 9000.0},
                ("admission", "failover"),
            ),
            (
                "scenarios/elastic_flash_crowd.json",
                {},
                ("admission", "elastic"),
            ),
            (
                "bench/workloads/drm_overload_skew.json",
                {},
                ("admission",),
            ),
            (
                "bench/workloads/drm_overload_skew.json",
                SWITCH_GAPS_UNDER_FAULTS,
                ("admission", "failover"),
            ),
        ],
        ids=[
            "chaos_elastic_churn", "elastic_flash_crowd",
            "drm_overload_skew", "switch_gaps_under_faults",
        ],
    )
    def test_same_run_as_plain_dfs(self, monkeypatch, path, overrides, callers):
        import json
        from pathlib import Path

        from repro.simulation import SimulationConfig

        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        raw = json.loads((Path(__file__).parent.parent / path).read_text())
        config = SimulationConfig.from_dict({**raw["config"], **overrides})
        lapsed = self.count_lapsed_certificates(monkeypatch)
        got = _run_counting_searches(config, monkeypatch, find_migration_chain)
        want = _run_counting_searches(config, monkeypatch, reference_chain_search)
        assert got[0] == want[0]
        assert got[1] == want[1] and got[1]
        assert got[2] == want[2]
        # A call site that moves must fail here, not silently pass.
        for caller in callers:
            assert got[2][caller] > 0, got[2]
        if overrides is SWITCH_GAPS_UNDER_FAULTS:
            assert lapsed["over a gap"] > 0 and lapsed["at its expiry"] > 0
        else:
            assert lapsed["over a gap"] == 0  # no switch gap here at all

    @staticmethod
    def count_lapsed_certificates(monkeypatch):
        """Count certificates stored over a stream in a switch gap, and
        checks that refused one because the gap had ended."""
        import math

        counts = {"over a gap": 0, "at its expiry": 0}
        cert = migration._Certificate
        real_init, real_holds = cert.__init__, cert.holds

        def init(self, *args):
            real_init(self, *args)
            counts["over a gap"] += self.expiry < math.inf

        def holds(self, servers, placement, policy, now, *args):
            held = real_holds(self, servers, placement, policy, now, *args)
            counts["at its expiry"] += not held and now >= self.expiry
            return held

        monkeypatch.setattr(cert, "__init__", init)
        monkeypatch.setattr(cert, "holds", holds)
        return counts


class TestChainFreesWhatTheCallerNeeds:
    """The search frees *a* slot — the moved stream's.  Whether that is
    room for the caller's request is checked by the caller, loudly."""

    @settings(max_examples=100, deadline=None)
    @given(search_cases())
    def test_freed_holder_takes_a_stream_of_the_moved_bandwidth(self, case):
        """With one view bandwidth (every committed config: it is a
        ``SystemConfig`` field) the callers' error is unreachable."""
        video_id, servers, placement, policy, _ = case
        chain = find_migration_chain(video_id, servers, placement, policy, NOW)
        if chain is None:
            return
        moved, freed = chain[-1].request, servers[chain[-1].source_id]
        assert freed.server_id in placement.holders(video_id)
        freed.detach(moved)
        assert freed.has_slot(moved.view_bandwidth)

    def mixed_cluster(self):
        """Server 0 (2 Mb/s) is full of two 1 Mb/s streams of video 0,
        which server 1 (1 Mb/s, idle) also holds; video 1 plays at
        2 Mb/s and lives on server 0 only.  Moving one stream out frees
        1 Mb/s — a slot, but not one video 1 fits in."""
        cluster = build_micro_cluster(
            server_specs=[(2.0, 1e9), (1.0, 1e9)],
            videos=[
                make_video(video_id=0, view_bandwidth=1.0),
                make_video(video_id=1, view_bandwidth=2.0),
            ],
            holders={0: [0, 1], 1: [0]},
            migration=MigrationPolicy.paper_default(),
        )
        for _ in range(2):
            cluster.servers[0].attach(make_request(video=cluster.catalog[0]))
        return cluster, make_request(video=cluster.catalog[1])

    def by_admission(cluster, request):
        cluster.admission.submit(request, 0.0)

    def by_failover(cluster, request):
        from repro.core.failover import FailoverManager

        FailoverManager(
            cluster.engine, cluster.servers, cluster.managers,
            cluster.placement, cluster.metrics, on_drop=[],
        )._relocate(request, 0.0)

    def by_drain(cluster, request):
        from types import SimpleNamespace

        from repro.core.elastic import ElasticScaler

        scaler = SimpleNamespace(
            controller=cluster, placement=cluster.placement, tracer=None
        )
        ElasticScaler._chain_target(scaler, 2, request, 0.0)  # drainer: 2

    @pytest.mark.parametrize(
        "relocate", [by_admission, by_failover, by_drain],
        ids=["admission", "failover", "drain"],
    )
    def test_mixed_bandwidths_fail_loudly_in_every_caller(self, relocate):
        cluster, request = self.mixed_cluster()
        with pytest.raises(
            RuntimeError,
            match=f"free a slot on server 0 for request {request.request_id}",
        ):
            relocate(cluster, request)
        assert cluster.metrics.migration_chains_found == 0


class TestSwitchDelay:
    def test_requires_buffer_coverage(self):
        cluster = chain_cluster(switch_delay=5.0)
        # Stream with zero buffer: not eligible to migrate.
        a, _ = cluster.submit(0, client=make_client(buffer_capacity=0.0))
        chain = find_migration_chain(
            2, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=1.0,
        )
        assert chain is None

    def test_buffer_is_projected_to_now_not_read_at_last_sync(self):
        """A stream boosted since its server's last event has more
        staged than its synced ``bytes_sent`` says."""
        videos = [make_video(video_id=i) for i in range(2)]
        cluster = build_micro_cluster(
            server_specs=[(2.0, 1e9), (2.0, 1e9)],
            videos=videos,
            holders={0: [0, 1], 1: [0]},
            migration=MigrationPolicy(
                enabled=True, max_hops_per_request=1, switch_delay=5.0,
            ),
        )
        a, _ = cluster.submit(0, client=make_client(buffer_capacity=1e9))
        cluster.engine.run_until(10.0)
        # Alone at 2 Mb/s since t=0 and not synced since: 20 Mb sent by
        # t=10 against 10 Mb viewed covers the 5 Mb gap; the stale
        # reading (0 Mb sent) does not.
        assert (a.rate, a.last_sync, a.bytes_sent) == (2.0, 0.0, 0.0)
        chain = find_migration_chain(
            1, cluster.servers, cluster.placement,
            cluster.admission.migration_policy, now=10.0,
        )
        assert chain is not None and chain[0].request is a
        assert (a.last_sync, a.bytes_sent) == (0.0, 0.0)  # not mutated

    def test_buffered_stream_migrates_and_pauses(self):
        # video 0 on {0,1}; videos 1 and 2 only on server 0 so the
        # filler and the newcomer are pinned to server 0.
        videos = [make_video(video_id=i) for i in range(3)]
        cluster = build_micro_cluster(
            server_specs=[(2.0, 1e9), (2.0, 1e9)],
            videos=videos,
            holders={0: [0, 1], 1: [0], 2: [0]},
            migration=MigrationPolicy(
                enabled=True, max_chain_length=1,
                max_hops_per_request=1, switch_delay=5.0,
            ),
        )
        # Stream alone on server 0 at 2 Mb/s builds buffer 1 Mb/s.
        a, _ = cluster.submit(0, client=make_client(buffer_capacity=1e9))
        assert a.server_id == 0
        cluster.engine.run_until(10.0)  # buffer ≈ 10 Mb ≥ 5 s × 1 Mb/s
        # Fill server 0's second slot (video 2 lives only there):
        cluster.submit(2, client=make_client())
        # Arrival for video 1 (only on 0): server 0 full (bw=2 → two
        # slots) → migrate a to server 1.
        newcomer, outcome = cluster.submit(1, client=make_client())
        assert outcome is AdmissionOutcome.ACCEPTED_WITH_MIGRATION
        moved = a if a.server_id == 1 else None
        assert moved is not None
        assert moved.paused_until == pytest.approx(10.0 + 5.0)
        assert moved.rate == 0.0
        # After the gap the stream resumes at >= b_view:
        cluster.engine.run_until(15.5)
        assert moved.rate >= moved.view_bandwidth - 1e-9

    def test_playback_continuity_through_switch(self):
        """During the switch gap the buffer drains but never underruns."""
        videos = [make_video(video_id=i) for i in range(3)]
        cluster = build_micro_cluster(
            server_specs=[(2.0, 1e9), (2.0, 1e9)],
            videos=videos,
            holders={0: [0, 1], 1: [0], 2: [0]},
            migration=MigrationPolicy(
                enabled=True, max_chain_length=1,
                max_hops_per_request=1, switch_delay=5.0,
            ),
        )
        a, _ = cluster.submit(0, client=make_client(buffer_capacity=1e9))
        cluster.engine.run_until(10.0)
        cluster.submit(2, client=make_client())
        cluster.submit(1, client=make_client())
        assert a.server_id == 1  # migrated
        for t in (11.0, 13.0, 15.0):
            cluster.engine.run_until(t)
            cluster.managers[1].flush(t)
            # sent >= viewed at all times → no underrun
            assert a.bytes_sent >= a.bytes_viewed(t) - 1e-6


class TestExecuteChain:
    def test_bytes_attributed_to_source_before_move(self):
        videos = [make_video(video_id=0), make_video(video_id=1)]
        cluster = build_micro_cluster(
            server_specs=[(1.0, 1e9), (1.0, 1e9)],
            videos=videos,
            holders={0: [0, 1], 1: [0]},
            migration=MigrationPolicy.paper_default(),
        )
        mover, _ = cluster.submit(0)
        cluster.engine.run_until(40.0)
        cluster.submit(1)  # triggers migration of mover at t=40
        assert mover.server_id == 1
        # All 40 Mb so far were sent by server 0.
        assert cluster.metrics.bytes_per_server.get(0, 0.0) == pytest.approx(40.0)
        cluster.engine.run_until(100.5)
        cluster.managers[1].flush(100.5)
        # Remaining 60 Mb from server 1.
        assert cluster.metrics.bytes_per_server.get(1, 0.0) == pytest.approx(60.0)
