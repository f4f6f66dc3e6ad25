"""Unit tests for the minimum-flow bandwidth allocators."""

import copy
import math

import pytest
from hypothesis import given, settings
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

from repro.core.transmission import TransmissionManager
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine

from conftest import make_client, make_request, make_video, rates_of


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
        reqs = [attached_request(srv) for _ in range(2)]
        extra = make_request(video=make_video(video_id=0))
        with pytest.raises(RuntimeError):
            rates_of(EFTFAllocator(), srv, reqs + [extra], 0.0)

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
        moved, horizon, irregular, finished = EFTFAllocator().allocate_into(
            srv, [done, live], 0.0
        )
        assert finished == [done]
        assert done.rate == 0.0  # untouched: the caller detaches it
        assert live.rate == pytest.approx(5.0)  # the whole link
        assert (moved, irregular) == (0.0, [live])
        assert horizon == pytest.approx(50.0)  # live's own, at b_view


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
# The fused pass against a readable reference
# ----------------------------------------------------------------------
def _greedy(rates, order, spare):
    for r in order:
        extra = min(spare, r.client.receive_bandwidth - rates[r.request_id])
        rates[r.request_id] += extra
        spare -= extra
        if spare <= EPS_RATE:
            break


def _water_fill(rates, pool, spare):
    caps = {
        r.request_id: r.client.receive_bandwidth - r.view_bandwidth
        for r in pool
    }
    while spare > EPS_RATE and pool:
        share = spare / len(pool)
        still_open = []
        for r in pool:
            extra = min(share, caps[r.request_id])
            if extra > EPS_RATE:
                rates[r.request_id] += extra
                spare -= extra
                caps[r.request_id] -= extra
                if caps[r.request_id] > EPS_RATE:
                    still_open.append(r)
        if len(still_open) == len(pool):
            break
        pool = still_open


def _minimum_flow_rates(name, link, requests, now):
    """Figure 2, the readable way: floor, then the policy's spare."""
    rates = {}
    floor = 0.0
    for r in requests:
        idle = r.is_paused(now) or (
            r.playback_paused and r.headroom(now) <= EPS_MB
        )
        rates[r.request_id] = 0.0 if idle else r.view_bandwidth
        if not idle:
            floor += r.view_bandwidth
    spare = link - floor
    eligible = [
        r for r in requests
        if rates[r.request_id] > 0.0
        and r.headroom(now) > EPS_MB
        and r.client.receive_bandwidth - r.view_bandwidth > EPS_RATE
    ]
    if spare > EPS_RATE:
        if name == "eftf":
            eligible.sort(key=lambda r: (r.remaining, r.request_id))
            _greedy(rates, eligible, spare)
        elif name == "lftf":
            eligible.sort(key=lambda r: (-r.remaining, r.request_id))
            _greedy(rates, eligible, spare)
        elif name == "proportional":
            _water_fill(rates, eligible, spare)
        else:
            assert name == "none"
    return rates


def _next_wall(r, rate, now):
    """When *r*'s linear evolution at *rate* next needs attention."""
    if r.is_paused(now):
        return r.paused_until  # switch-gap end
    if rate <= EPS_RATE:
        return math.inf  # VCR-paused with a full buffer
    vb = r.view_bandwidth
    drain = 0.0 if r.playback_paused else vb
    finish = (
        r.projected_finish(now) if rate == vb else now + r.remaining / rate
    )
    full = math.inf
    if rate - drain > EPS_RATE and r.client.buffer_capacity < math.inf:
        room = max(0.0, r.client.buffer_capacity - r.buffer_occupancy(now))
        full = now + room / (rate - drain)
    return min(finish, full)


def reference_step(name, link, requests, now):
    """One reallocation assembled from the readable ``Request`` helpers:
    integrate, set the finished aside, floor + spare for the rest;
    returns ``({request_id: rate}, finished, Mb moved, next boundary)``."""
    moved = 0.0
    for r in requests:
        moved += r.sync(now)
    finished = [r for r in requests if r.transmission_finished]
    left = [r for r in requests if not r.transmission_finished]
    rates = _minimum_flow_rates(name, link, left, now)
    walls = [_next_wall(r, rates[r.request_id], now) for r in left]
    return rates, finished, moved, min(walls, default=math.inf)


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
    """The one fused pass TransmissionManager drives — sync, floor,
    candidates, spare, horizon — must produce exactly what the readable
    reference does: bit-equality, not approx, because the pass must keep
    the reference's float operations and their order.
    """

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    @settings(max_examples=80, deadline=None)
    @given(state=schedule_states())
    def test_matches_reference_dict_path(self, name, state):
        now, floor, headroom, requests = state
        link = floor * max(1.0, headroom)  # the link covers its floor
        expected_rates, done, moved, wall = reference_step(
            name, link, [copy.copy(r) for r in requests], now
        )
        expected_sent = {
            r.request_id: min(r.bytes_sent + r.rate * (now - r.last_sync), r.size)
            for r in requests
        }

        engine = Engine(start_time=now)
        srv = DataServer(0, bandwidth=link, disk_capacity=1e9)
        metrics = SimulationMetrics()
        finished = []
        manager = TransmissionManager(
            engine, srv, ALLOCATORS[name](), metrics, on_finish=finished.append
        )
        for r in requests:
            srv.store_replica(r.video)
            srv.attach(r)
        manager.reallocate(now)

        # The finished leave in active-list order, floorless and rateless.
        assert [r.request_id for r in finished] == [r.request_id for r in done]
        for r in finished:
            assert (r.state, r.finish_time, r.rate) == (
                RequestState.FINISHED, now, 0.0
            )
        assert list(srv.iter_active()) == [
            r for r in requests if r not in finished
        ]
        assert {r.request_id: r.rate for r in srv.iter_active()} == expected_rates
        assert {r.request_id: r.bytes_sent for r in requests} == expected_sent
        assert all(r.last_sync == now for r in requests)
        assert metrics.total_megabits == moved
        assert engine.peek_time() == (None if wall == math.inf else wall)


# ----------------------------------------------------------------------
# The one-pass cycle against the three-scan handler it replaced
# ----------------------------------------------------------------------
class ThreeScanManager:
    """A server's cycle as the boundary handler ran it before the scans
    were folded into the allocator pass, written with the readable
    ``Request`` helpers: (1) integrate every stream, (2) look every
    stream over for a buffer that just filled, retire the finished,
    (3) floor + spare + next wall over the rest.  Same constructor, sinks
    and engine use as :class:`TransmissionManager`, so the two can be
    compared record for record."""

    def __init__(self, engine, server, allocator, metrics, on_finish, tracer):
        self.engine = engine
        self.server = server
        self.name = allocator.name
        self.metrics = metrics
        self.on_finish = on_finish
        self.tracer = tracer
        self._event = None
        self.reallocations = 0

    def admit(self, request, now):
        request.last_sync = now
        self.server.attach(request)
        self.reallocate(now)

    def reallocate(self, now):
        self.reallocations += 1
        server = self.server
        streams = list(server.iter_active())
        moved = 0.0
        for r in streams:  # scan 1
            moved += r.sync(now)
        if moved > 0.0:
            self.metrics.record_bytes(server.server_id, moved, now)
        for r in streams:  # scan 2
            boosted = r.rate > r.view_bandwidth + EPS_RATE
            if (
                boosted
                and not r.playback_paused
                and not r.transmission_finished
                and r.client.buffer_capacity - r.buffer_occupancy(now) <= EPS_MB
            ):
                self.tracer.emit(
                    TraceKind.STREAM_BUFFER_FULL, now,
                    request=r.request_id, server=server.server_id,
                )
        for r in streams:
            if r.transmission_finished:
                server.detach(r)
                r.mark_finished(now)
                self.on_finish(r)
        left = list(server.iter_active())  # scan 3
        rates = _minimum_flow_rates(self.name, server.bandwidth, left, now)
        for r in left:
            r.rate = rates[r.request_id]
        self.tracer.emit(
            TraceKind.SCHED_REALLOC, now,
            server=server.server_id, allocator=self.name, streams=len(left),
            boosted=sum(r.rate > r.view_bandwidth for r in left),
        )
        if self._event is not None:
            self._event.cancel()
            self._event = None
        wall = min((_next_wall(r, r.rate, now) for r in left), default=math.inf)
        if wall < math.inf:
            self._event = self.engine.schedule_at(
                max(wall, now), self._on_boundary,
                kind=f"tx-boundary:srv{server.server_id}",
            )

    def _on_boundary(self):
        self._event = None
        self.reallocate(self.engine.now)


class BytesLog:
    """A metrics sink that keeps every ``record_bytes`` call."""

    def __init__(self):
        self.calls = []

    def record_bytes(self, server_id, megabits, now):
        self.calls.append((server_id, megabits, now))


@st.composite
def server_scripts(draw):
    """One server's life: streams (admit time, client, optional switch
    gap, optional VCR pause / resume) and bare external triggers.  Values
    come from small sets so that coincidences are the norm: simultaneous
    admissions, finishes and buffer walls, a trigger at a boundary's own
    timestamp, the same trigger twice (``dt == 0`` re-entry)."""
    streams = []
    for _ in range(draw(st.integers(1, 6))):
        if streams and draw(st.booleans()):
            streams.append(dict(streams[-1]))  # a twin: same walls
            continue
        vb = draw(st.sampled_from([1.0, 1.5, 3.0]))
        streams.append(dict(
            vb=vb,
            length=draw(st.sampled_from([20.0, 40.0, 60.0])),
            buffer=draw(st.sampled_from([0.0, 5.0, 18.0, math.inf])),
            receive=draw(st.sampled_from([math.inf, 2 * vb, 4.5])),
            admit=draw(st.sampled_from([0.0, 1.0, 2.5])),
            gap=draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])),
            pause=draw(st.sampled_from([None, None, 3.0, 7.5, 12.0])),
            resume_after=draw(st.sampled_from([None, 1.0, 30.0])),
        ))
    pokes = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.5, 7.5, 20.0, 22.5, 40.0]),
            st.floats(0.0, 70.0),
        ),
        max_size=4,
    ))
    return streams, pokes, draw(st.sampled_from([1.0, 1.3, 2.5]))


def play(manager_class, name, script, requests):
    """Run *script* on a fresh engine + server under *manager_class*;
    returns everything observable about the run."""
    specs, pokes, headroom = script
    requests = [copy.copy(r) for r in requests]
    engine = Engine()
    link = headroom * sum(spec["vb"] for spec in specs)
    server = DataServer(0, bandwidth=link, disk_capacity=1e9)
    sink, tracer, finishes, cycles = BytesLog(), Tracer(), [], []

    def on_finish(r):
        # What the controller does with it.
        finishes.append((r.request_id, r.finish_time))
        tracer.emit(
            TraceKind.REQUEST_FINISH, engine.now,
            request=r.request_id, server=r.server_id,
        )

    manager = manager_class(
        engine, server, ALLOCATORS[name](), sink, on_finish, tracer
    )
    cycle = manager.reallocate

    def reallocate(now):
        cycle(now)
        event = manager._event
        cycles.append((
            now, manager.reallocations,
            None if event is None else (event.time, event.seq),
            [(r.state, r.bytes_sent, r.rate, r.last_sync, r.finish_time)
             for r in requests],
        ))

    manager.reallocate = reallocate  # boundary events go through it too

    def attached(r):
        return r.state is RequestState.ACTIVE and r.request_id in server.active

    def pause(r):
        now = engine.now
        if attached(r) and not r.playback_paused and r.bytes_viewed(now) < r.size:
            r.pause_playback(now)
            manager.reallocate(now)

    def resume(r):
        if r.playback_paused:
            r.resume_playback(engine.now)
            if attached(r):
                manager.reallocate(engine.now)

    for spec, r in zip(specs, requests):
        server.store_replica(r.video)
        engine.schedule_at(spec["admit"], lambda r=r: manager.admit(r, engine.now))
        if spec["pause"] is not None:
            at = spec["admit"] + spec["pause"]
            engine.schedule_at(at, lambda r=r: pause(r))
            if spec["resume_after"] is not None:
                engine.schedule_at(
                    at + spec["resume_after"], lambda r=r: resume(r)
                )
    for t in pokes:
        engine.schedule_at(t, lambda: manager.reallocate(engine.now))
    engine.run_until(400.0)
    trace = [record.to_json() for record in tracer.records()]
    return cycles, sink.calls, finishes, trace


class TestOnePassCycle:
    """``TransmissionManager.reallocate`` — one pass per server event,
    whatever triggered it — must leave exactly what three scans did:
    every float, every record, every scheduled boundary."""

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    @settings(max_examples=60, deadline=None)
    @given(script=server_scripts())
    def test_matches_three_scan_reference(self, name, script):
        requests = []
        for i, spec in enumerate(script[0]):
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

        got = play(TransmissionManager, name, script, requests)
        want = play(ThreeScanManager, name, script, requests)
        for label, a, b in zip(
            ("cycles", "record_bytes", "finishes", "trace"), got, want
        ):
            assert a == b, label
