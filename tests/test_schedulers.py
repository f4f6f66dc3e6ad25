"""Unit tests for the minimum-flow bandwidth allocators."""

import copy
import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.request import EPS_MB, RequestState
from repro.cluster.server import DataServer
from repro.core.schedulers import (
    ALLOCATORS,
    EPS_RATE,
    EFTFAllocator,
    LFTFAllocator,
    NoWorkaheadAllocator,
    ProportionalShareAllocator,
)

from repro.core.failover import FailoverManager
from repro.core.migration import MigrationPolicy, MigrationStep, execute_chain
from repro.core.transmission import TransmissionManager
from repro.placement.base import PlacementMap
from repro.sim.engine import Engine

from conftest import (
    is_pending, live_events, make_client, make_request, make_video, rates_of,
)


def server(bandwidth=10.0):
    s = DataServer(0, bandwidth=bandwidth, disk_capacity=1e9)
    s.store_replica(make_video(video_id=0))
    return s


def attached_request(
    srv,
    remaining=100.0,
    buffer_capacity=math.inf,
    receive_bandwidth=math.inf,
    length=100.0,
):
    """An attached request with the given megabits still to send."""
    r = make_request(
        video=make_video(video_id=0, length=length),
        client=make_client(buffer_capacity, receive_bandwidth),
    )
    r.bytes_sent = r.size - remaining
    srv.attach(r)
    return r


class TestMinimumFlow:
    def test_every_live_request_gets_view_bandwidth(self):
        srv = server(bandwidth=10.0)
        reqs = [attached_request(srv) for _ in range(3)]
        rates = rates_of(NoWorkaheadAllocator(), srv, reqs, 0.0)
        for r in reqs:
            assert rates[r.request_id] == pytest.approx(r.view_bandwidth)

    def test_paused_request_gets_zero(self):
        srv = server(bandwidth=10.0)
        r = attached_request(srv)
        r.paused_until = 5.0
        rates = rates_of(EFTFAllocator(), srv, [r], 0.0)
        assert rates[r.request_id] == 0.0

    def test_pause_expiry_restores_flow(self):
        srv = server(bandwidth=10.0)
        r = attached_request(srv)
        r.paused_until = 5.0
        rates = rates_of(EFTFAllocator(), srv, [r], 5.0)
        assert rates[r.request_id] >= r.view_bandwidth

    def test_overcommit_raises(self):
        srv = server(bandwidth=2.0)
        reqs = [attached_request(srv) for _ in range(3)]
        with pytest.raises(RuntimeError, match="minimum-flow violated"):
            rates_of(EFTFAllocator(), srv, reqs, 0.0)

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_total_never_exceeds_link(self, name):
        srv = server(bandwidth=10.0)
        reqs = [
            attached_request(srv, remaining=10.0 * (i + 1),
                             receive_bandwidth=4.0, buffer_capacity=50.0)
            for i in range(4)
        ]
        rates = rates_of(ALLOCATORS[name](), srv, reqs, 0.0)
        assert sum(rates.values()) <= srv.bandwidth + 1e-9
        for r in reqs:
            assert rates[r.request_id] >= r.view_bandwidth - 1e-12


class TestEFTF:
    def test_spare_goes_to_earliest_finish(self):
        srv = server(bandwidth=5.0)
        near = attached_request(srv, remaining=10.0)
        far = attached_request(srv, remaining=90.0)
        rates = rates_of(EFTFAllocator(), srv, [near, far], 0.0)
        # 2 Mb/s base + 3 spare, all to the near-finished stream.
        assert rates[near.request_id] == pytest.approx(4.0)
        assert rates[far.request_id] == pytest.approx(1.0)

    def test_respects_receive_bandwidth_cap(self):
        srv = server(bandwidth=10.0)
        near = attached_request(srv, remaining=10.0, receive_bandwidth=3.0)
        far = attached_request(srv, remaining=90.0)
        rates = rates_of(EFTFAllocator(), srv, [near, far], 0.0)
        assert rates[near.request_id] == pytest.approx(3.0)  # capped
        # Leftover spills to the next-earliest:
        assert rates[far.request_id] == pytest.approx(7.0)

    def test_skips_full_buffers(self):
        srv = server(bandwidth=5.0)
        near = attached_request(srv, remaining=50.0, buffer_capacity=10.0)
        far = attached_request(srv, remaining=90.0, buffer_capacity=10.0)
        # Fill near's buffer: sent 50, viewed 40 at t=40 → buffer 10 = cap.
        near.bytes_sent = 50.0
        near.last_sync = 40.0
        far.bytes_sent = 50.0  # viewed 40 → buffer 10 = cap too? No: cap
        far.last_sync = 40.0   # far: sent 50 viewed 40 → also full.
        # Give far headroom by enlarging its buffer:
        far.client = make_client(buffer_capacity=30.0)
        rates = rates_of(EFTFAllocator(), srv, [near, far], 40.0)
        assert rates[near.request_id] == pytest.approx(1.0)
        assert rates[far.request_id] == pytest.approx(4.0)

    def test_skips_receive_capped_at_view_rate(self):
        srv = server(bandwidth=5.0)
        r = attached_request(srv, remaining=50.0, receive_bandwidth=1.0)
        rates = rates_of(EFTFAllocator(), srv, [r], 0.0)
        assert rates[r.request_id] == pytest.approx(1.0)

    def test_deterministic_tie_break_by_id(self):
        srv = server(bandwidth=3.0)
        a = attached_request(srv, remaining=50.0, receive_bandwidth=3.0)
        b = attached_request(srv, remaining=50.0, receive_bandwidth=3.0)
        rates = rates_of(EFTFAllocator(), srv, [b, a], 0.0)
        # Equal remaining → lower request id wins the spare.
        assert rates[a.request_id] > rates[b.request_id]

    def test_finished_request_not_boosted(self):
        """A stream with nothing left is split off by the pass: no
        floor, no spare, no boundary — its share goes to the others."""
        srv = server(bandwidth=5.0)
        done = attached_request(srv, remaining=0.0)
        live = attached_request(srv, remaining=50.0)
        moved, boundary, finished = EFTFAllocator().allocate_into(
            srv, [done, live], 0.0
        )
        assert finished == [done]
        assert done.rate == 0.0  # untouched: the caller detaches it
        assert live.rate == 5.0  # the whole link
        assert moved == 0.0
        # Boosted, so off the floor order (which is empty): the boundary
        # is its own finish wall, 50 Mb at 5 Mb/s.
        assert boundary == 10.0 and srv.floor == []
        assert srv.moved == [live]

    def test_spare_goes_to_earliest_projected_finish_not_least_remaining(self):
        """With mixed view bandwidths the two orders disagree: 30 Mb at
        1 Mb/s finishes at t = 30, 60 Mb at 3 Mb/s at t = 20."""
        srv = DataServer(0, bandwidth=6.0, disk_capacity=1e9)
        slow_video = make_video(video_id=0, length=30.0, view_bandwidth=1.0)
        fast_video = make_video(video_id=1, length=20.0, view_bandwidth=3.0)
        client = make_client(math.inf)
        less_left = make_request(video=slow_video, client=client)
        ends_first = make_request(video=fast_video, client=client)
        for r in (less_left, ends_first):
            srv.store_replica(r.video)
            srv.attach(r)
        assert less_left.size < ends_first.size
        # Projected finishes at b_view: remaining / view bandwidth.
        assert ends_first.remaining(0.0) / 3.0 < less_left.remaining(0.0) / 1.0
        rates = rates_of(EFTFAllocator(), srv, [less_left, ends_first], 0.0)
        assert rates[ends_first.request_id] == pytest.approx(5.0)
        assert rates[less_left.request_id] == pytest.approx(1.0)


class TestLFTF:
    def test_spare_goes_to_latest_finish(self):
        srv = server(bandwidth=5.0)
        near = attached_request(srv, remaining=10.0)
        far = attached_request(srv, remaining=90.0)
        rates = rates_of(LFTFAllocator(), srv, [near, far], 0.0)
        assert rates[far.request_id] == pytest.approx(4.0)
        assert rates[near.request_id] == pytest.approx(1.0)

    def test_deterministic_tie_break_by_id(self):
        srv = server(bandwidth=3.0)
        a = attached_request(srv, remaining=50.0, receive_bandwidth=3.0)
        b = attached_request(srv, remaining=50.0, receive_bandwidth=3.0)
        rates = rates_of(LFTFAllocator(), srv, [b, a], 0.0)
        assert rates[a.request_id] > rates[b.request_id]


class TestProportionalShare:
    def test_even_split(self):
        srv = server(bandwidth=10.0)
        a = attached_request(srv, remaining=10.0)
        b = attached_request(srv, remaining=90.0)
        rates = rates_of(ProportionalShareAllocator(), srv, [a, b], 0.0)
        assert rates[a.request_id] == pytest.approx(5.0)
        assert rates[b.request_id] == pytest.approx(5.0)

    def test_water_filling_past_caps(self):
        srv = server(bandwidth=10.0)
        capped = attached_request(srv, remaining=50.0, receive_bandwidth=2.0)
        open_ = attached_request(srv, remaining=50.0)
        rates = rates_of(ProportionalShareAllocator(), srv, [capped, open_], 0.0)
        assert rates[capped.request_id] == pytest.approx(2.0)
        assert rates[open_.request_id] == pytest.approx(8.0)

    def test_all_capped_leaves_spare_idle(self):
        srv = server(bandwidth=100.0)
        reqs = [
            attached_request(srv, remaining=50.0, receive_bandwidth=2.0)
            for _ in range(3)
        ]
        rates = rates_of(ProportionalShareAllocator(), srv, reqs, 0.0)
        assert sum(rates.values()) == pytest.approx(6.0)


class TestNoWorkahead:
    def test_spare_always_idle(self):
        srv = server(bandwidth=10.0)
        reqs = [attached_request(srv, remaining=50.0) for _ in range(2)]
        rates = rates_of(NoWorkaheadAllocator(), srv, reqs, 0.0)
        assert sum(rates.values()) == pytest.approx(2.0)


class TestInlinedEligibilityEquivalence:
    """The allocator inlines Request.headroom for speed; pin them equal."""

    @pytest.mark.parametrize(
        "buffer_capacity,sent,now",
        [
            (10.0, 0.0, 0.0),
            (10.0, 30.0, 10.0),
            (10.0, 20.0, 10.0),   # exactly full
            (math.inf, 95.0, 50.0),
            (0.0, 5.0, 5.0),
        ],
    )
    def test_headroom_matches_inline_formula(self, buffer_capacity, sent, now):
        r = make_request(client=make_client(buffer_capacity))
        r.bytes_sent = sent
        r.last_sync = now
        vb = r.view_bandwidth
        inline_head = r.client.buffer_capacity - (
            sent - (now - r.playback_start) * vb
        )
        data_head = r.size - sent
        expected = max(0.0, min(inline_head, data_head))
        assert r.headroom(now) == pytest.approx(expected)


# ----------------------------------------------------------------------
# The lazy pass against the eager one it replaced
# ----------------------------------------------------------------------
def _water_fill(candidates, spare):
    pool = [(r, cap) for _key, _rid, r, cap in candidates]
    while spare > EPS_RATE and pool:
        share = spare / len(pool)
        still_open = []
        for r, cap in pool:
            extra = min(share, cap)
            if extra > EPS_RATE:
                r.rate += extra
                spare -= extra
                if cap - extra > EPS_RATE:
                    still_open.append((r, cap - extra))
        if len(still_open) == len(pool):
            break
        pool = still_open


def eager_pass(name, link, requests, now):
    """The allocation pass as it was before the floor order: integrate
    every stream, re-test every floor and candidacy, sort every
    candidate by (projected finish, request id).  Mutates *requests*;
    returns ``(finished, sorted candidates)``.

    A stream that has a floor key keeps it as its projected finish: the
    same quantity, computed when the stream entered the floor order, so
    that ties in exact arithmetic break as the lazy pass breaks them
    (:class:`Lockstep` checks the stored key against a fresh computation).
    """
    base = 0.0
    finished, candidates = [], []
    for r in requests:
        r.sync(now)
        remaining = r.size - r.bytes_sent
        if remaining <= EPS_MB:
            finished.append(r)
            continue
        if r.is_paused(now):
            r.rate = 0.0
            continue
        vb = r.view_bandwidth
        playing = now < r.playback_pause_time
        played_until = now if playing else r.playback_pause_time
        roomy = r.client.buffer_capacity - (
            r.bytes_sent - (played_until - r.playback_start) * vb
        ) > EPS_MB
        if not (playing or roomy):
            r.rate = 0.0
            continue
        r.rate = vb
        base += vb
        extra_cap = r.client.receive_bandwidth - vb
        if roomy and extra_cap > EPS_RATE:
            key = r.floor_key
            if key is None:
                key = now + remaining / vb
            candidates.append((key, r.request_id, r, extra_cap))
    if base > link + EPS_MB:
        raise RuntimeError("minimum-flow violated")
    spare = link - base
    candidates.sort()
    if spare > EPS_RATE and candidates:
        if name == "proportional":
            _water_fill(candidates, spare)
        elif name in ("eftf", "lftf"):
            order = candidates if name == "eftf" else sorted(
                candidates, key=lambda c: (-c[0], c[1])
            )
            for _key, _rid, r, extra_cap in order:
                extra = min(spare, extra_cap)
                r.rate += extra
                spare -= extra
                if spare <= EPS_RATE:
                    break
        else:
            assert name == "none"
    return finished, candidates


def _next_wall(r, rate, now):
    """When *r*'s linear evolution at *rate* next needs attention."""
    if r.is_paused(now):
        return r.paused_until  # switch-gap end
    if rate <= EPS_RATE:
        return math.inf  # VCR-paused with a full buffer
    vb = r.view_bandwidth
    drain = 0.0 if r.playback_paused else vb
    finish = (
        now + r.remaining(now) / rate
    )
    full = math.inf
    if rate - drain > EPS_RATE and r.client.buffer_capacity < math.inf:
        room = max(0.0, r.client.buffer_capacity - r.buffer_occupancy(now))
        full = now + room / (rate - drain)
    return min(finish, full)


class Lockstep:
    """A :class:`TransmissionManager` whose every pass is checked against
    :func:`eager_pass` run on copies of the server's streams as the pass
    found them.  After each pass:

    * the same streams finished, in the same order;
    * every rate within ``EPS_RATE``, every ``sent_at(now)`` within
      ``EPS_MB`` of the eager integration;
    * the floor order is exact — sorted, a partition of ``active`` with
      ``server.moved``, every stream in it at exactly ``b_view`` with a
      key within 1e-9 s of its projected finish — and its candidates
      are the eager candidate order minus the streams the pass left off
      the floor;
    * a floor stream the pass was not handed and did not reach is
      untouched, ``(bytes_sent, last_sync, rate)`` bit for bit;
    * the boundary the pass returned within 1e-9 s of the readable
      rule's; the pending event at exactly ``max(boundary, now)`` (a
      kept event is never stale) and its server's only live boundary
      event on the agenda.
    """

    def __init__(self, engine, server, name, metrics):
        self.name = name
        self._finished_now = []
        self.manager = TransmissionManager(
            engine, server, ALLOCATORS[name](), metrics,
            on_finish=self._finished_now.append,
        )
        allocate = self.manager.allocator.allocate_into
        cycle = self.manager.reallocate
        self._handed = []  # the streams handed to this pass
        self._boundary = None  # the boundary this pass returned

        def allocate_into(server, requests, now):
            self._handed = list(requests)
            result = allocate(server, requests, now)
            self._boundary = result[1]
            return result

        def reallocate(now, changed=None):
            self._check(cycle, now, changed)

        self.manager.allocator.allocate_into = allocate_into
        self.manager.reallocate = reallocate

    def _check(self, cycle, now, changed):
        server = self.manager.server
        streams = list(server.active.values())
        before = {r.request_id: (r.bytes_sent, r.last_sync, r.rate)
                  for r in streams}
        copies = {r.request_id: copy.copy(r) for r in streams}
        if changed is not None:
            copies[changed.request_id].floor_key = None  # lifted
        done, candidates = eager_pass(
            self.name, server.bandwidth, list(copies.values()), now
        )
        wall = min(
            (_next_wall(c, c.rate, now)
             for c in copies.values() if c not in done),
            default=math.inf,
        )
        del self._finished_now[:]
        cycle(now, changed)

        assert [r.request_id for r in self._finished_now] == [
            c.request_id for c in done
        ]
        for r in streams:
            assert abs(r.sent_at(now) - copies[r.request_id].bytes_sent) <= EPS_MB
        for r in server.active.values():
            assert abs(r.rate - copies[r.request_id].rate) <= EPS_RATE

        floor = server.floor
        assert floor == sorted(floor)
        for key, _rid, r, _cap in floor:
            assert r.floor_key == key and r.rate == r.view_bandwidth
            assert abs(key - (now + r.remaining(now) / r.view_bandwidth)) <= 1e-9
        on_floor = {e[1] for e in floor}
        moved = {r.request_id for r in server.moved}
        assert not on_floor & moved
        assert on_floor | moved == set(server.active)
        assert server.floor_candidates == [e for e in floor if e[3] > 0.0]
        assert [e[1] for e in server.floor_candidates] == [
            c[1] for c in candidates if c[1] in on_floor
        ]
        handed = {r.request_id for r in self._handed}
        for _key, rid, r, _cap in floor:
            if rid in before and rid not in handed:
                assert (r.bytes_sent, r.last_sync, r.rate) == before[rid]

        boundary = self._boundary
        event = self.manager._event
        live = [e for e in live_events(self.manager.engine)
                if e.kind == self.manager._boundary_kind]
        if wall == math.inf:
            assert boundary == math.inf and event is None and live == []
        else:
            assert abs(max(boundary, now) - max(wall, now)) <= 1e-9
            assert is_pending(event) and event.time == max(boundary, now)
            assert live == [event]


@st.composite
def cluster_scripts(draw):
    """Two servers' lives: streams (server, admit time, client, optional
    arrival in a switch gap, optional VCR pause / resume) and cluster
    operations (bare trigger, migration with or without a switch gap,
    link degrade and restore, server fail and restore).  Values come
    from small sets so that coincidences are the norm: simultaneous
    admissions, finishes and buffer walls, a trigger at a boundary's own
    timestamp, the same trigger twice (``dt == 0`` re-entry)."""
    times = st.one_of(
        st.sampled_from([0.0, 1.0, 2.5, 7.5, 20.0, 22.5, 40.0]),
        st.floats(0.0, 70.0),
    )
    streams = []
    for _ in range(draw(st.integers(1, 8))):
        if streams and draw(st.booleans()):
            streams.append(dict(streams[-1]))  # a twin: same walls
            continue
        vb = draw(st.sampled_from([1.0, 1.5, 3.0]))
        streams.append(dict(
            server=draw(st.integers(0, 1)),
            vb=vb,
            length=draw(st.sampled_from([20.0, 40.0, 60.0])),
            buffer=draw(st.sampled_from([0.0, 5.0, 18.0, math.inf])),
            receive=draw(st.sampled_from([math.inf, 2 * vb, 4.5])),
            admit=draw(st.sampled_from([0.0, 1.0, 2.5])),
            gap=draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])),
            pause=draw(st.sampled_from([None, None, 3.0, 7.5, 12.0])),
            resume_after=draw(st.sampled_from([None, 1.0, 30.0])),
        ))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from([
                "poke", "migrate", "degrade", "restore_link", "fail",
                "restore",
            ]),
            st.integers(0, len(streams) - 1),  # a stream, or its server
            times,
            st.sampled_from([0.0, 0.5, 2.0, 0.5]),  # switch gap / factor
        ),
        max_size=6,
    ))
    return streams, ops, draw(st.sampled_from([1.0, 1.3, 2.5]))


def play(name, script):
    """Run *script* with every pass in lockstep with the eager one;
    returns the requests and the megabits they were sent, by the
    metrics plus what they arrived with."""
    specs, ops, headroom = script
    engine = Engine()
    metrics = SimulationMetrics()
    requests = []
    for i, spec in enumerate(specs):
        r = make_request(
            video=make_video(
                video_id=i, length=spec["length"], view_bandwidth=spec["vb"]
            ),
            client=make_client(spec["buffer"], spec["receive"]),
            arrival_time=spec["admit"],
        )
        if spec["gap"]:
            # Arrives mid-migration, its gap covered by staged data.
            r.paused_until = spec["admit"] + spec["gap"]
            r.bytes_sent = spec["vb"] * spec["gap"] + 1.0
        requests.append(r)
    staged = sum(r.bytes_sent for r in requests)
    servers, harnesses = {}, {}
    for sid in (0, 1):
        floor = sum(s["vb"] for s in specs if s["server"] == sid)
        servers[sid] = DataServer(
            sid, bandwidth=headroom * max(floor, 1.0), disk_capacity=1e9
        )
        for r in requests:
            servers[sid].store_replica(r.video)
        harnesses[sid] = Lockstep(engine, servers[sid], name, metrics)
    managers = {sid: h.manager for sid, h in harnesses.items()}
    placement = PlacementMap({i: (0, 1) for i in range(len(requests))})
    failover = FailoverManager(engine, servers, managers, placement, metrics, [])

    def attached(r):
        return r.state is RequestState.ACTIVE and r.server_id is not None

    def admit(r, sid):
        if servers[sid].has_slot_for(r):
            managers[sid].admit(r, engine.now)

    def pause(r):
        now = engine.now
        if attached(r) and not r.playback_paused and r.bytes_viewed(now) < r.size:
            r.pause_playback(now)
            managers[r.server_id].reallocate(now, changed=r)

    def resume(r):
        if r.playback_paused:
            r.resume_playback(engine.now)
            if attached(r):
                managers[r.server_id].reallocate(engine.now, changed=r)

    def migrate(r, gap):
        now = engine.now
        if not attached(r) or r.is_paused(now):
            return
        if r.sent_at(now) - r.bytes_viewed(now) < gap * r.view_bandwidth:
            return  # DRM eligibility: the buffer must cover the gap
        source = r.server_id
        target = 1 - source
        if servers[target].up and servers[target].has_slot_for(r):
            policy = MigrationPolicy(enabled=True, switch_delay=gap)
            execute_chain([MigrationStep(r, source, target)], managers, policy, now)

    def operate(op, index, value):
        sid = specs[index]["server"]
        if op == "poke":
            if servers[sid].up:
                managers[sid].reallocate(engine.now)
        elif op == "migrate":
            migrate(requests[index], value)
        elif op == "restore_link":
            failover.restore_link(sid)
        elif op == "restore":
            failover.restore_server(sid)
        else:
            try:
                if op == "degrade":
                    failover.degrade_server(sid, 0.5 if value else 0.25)
                else:
                    failover.fail_server(sid)
            except RuntimeError as exc:
                # A rescue chain frees one displaced stream's view
                # bandwidth, which with mixed view bandwidths can be
                # less than the orphan needs; failover raises on that
                # by design (test_migration.py's
                # TestChainFreesWhatTheCallerNeeds), whatever the
                # allocator.
                if "did not free a slot" not in str(exc):
                    raise
                reject()

    for spec, r in zip(specs, requests):
        engine.schedule_at(spec["admit"], lambda r=r, s=spec["server"]: admit(r, s))
        if spec["pause"] is not None:
            at = spec["admit"] + spec["pause"]
            engine.schedule_at(at, lambda r=r: pause(r))
            if spec["resume_after"] is not None:
                engine.schedule_at(
                    at + spec["resume_after"], lambda r=r: resume(r)
                )
    for op, index, at, value in ops:
        engine.schedule_at(at, lambda a=(op, index, value): operate(*a))
    engine.run_until(400.0)
    for sid, server in servers.items():
        if server.up:
            managers[sid].flush(400.0)
    return requests, metrics.total_megabits + staged


@st.composite
def schedule_states(draw):
    """A server's schedule just before a reallocation at ``now``: every
    stream last synced at ``then <= now`` (or just arrived), holding
    the rate it was given then.  No stream has underrun by ``now``."""
    now = draw(st.floats(0.0, 50.0))
    then = max(0.0, now - draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))))
    requests = []
    for i in range(draw(st.integers(1, 10))):
        vb = draw(st.sampled_from([1.0, 1.5, 3.0]))
        start = draw(st.floats(0.0, then))
        kind = draw(st.sampled_from(["playing", "vcr", "gap", "finished"]))
        r = make_request(
            video=make_video(
                video_id=i, view_bandwidth=vb,
                length=(now - start) + draw(st.floats(1.0, 150.0)),
            ),
            client=make_client(
                draw(st.one_of(st.just(0.0), st.just(math.inf),
                               st.floats(0.5, 200.0))),
                draw(st.one_of(st.just(math.inf), st.floats(vb, 50.0))),
            ),
            arrival_time=start,
        )
        played_until = now
        if kind == "vcr":
            played_until = draw(st.floats(start, then))
            r.playback_pause_time = played_until
            r.pauses = 1
        if kind == "gap":
            r.paused_until = now + draw(st.floats(0.1, 10.0))
        elif draw(st.booleans()):
            r.paused_until = then  # a switch gap that has ended
        viewed = min(r.size, vb * (played_until - start))
        r.bytes_sent = (
            r.size if kind == "finished" else draw(st.floats(viewed, r.size))
        )
        r.rate = draw(st.sampled_from([0.0, vb, 2.5 * vb]))
        r.last_sync = now if draw(st.booleans()) else then
        requests.append(r)
    floor = 0.0
    for r in requests:
        floor += r.view_bandwidth
    return now, floor, draw(st.floats(0.3, 3.0)), requests


class TestAllocateIntoEquivalence:
    """One pass from an arbitrary schedule state — every stream just
    attached, so all are handed in — checked against the eager pass."""

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    @settings(max_examples=80, deadline=None)
    @given(state=schedule_states())
    def test_matches_reference_dict_path(self, name, state):
        now, floor, headroom, requests = state
        srv = DataServer(0, bandwidth=floor * max(1.0, headroom),
                         disk_capacity=1e9)
        harness = Lockstep(Engine(start_time=now), srv, name,
                           SimulationMetrics())
        for r in requests:
            srv.store_replica(r.video)
            srv.attach(r)
        harness.manager.reallocate(now)


class TestOnePassCycle:
    """Every pass ``TransmissionManager.reallocate`` makes, over a whole
    two-server script, is the eager pass within float noise, and leaves
    the floor order exact (:class:`Lockstep`)."""

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    @settings(max_examples=60, deadline=None)
    @given(script=cluster_scripts())
    def test_every_pass_matches_eager_reference(self, name, script):
        requests, sent = play(name, script)
        # Nothing integrated lazily goes unaccounted.
        assert sent == pytest.approx(
            sum(r.bytes_sent for r in requests), abs=1e-6
        )
