"""Unit tests for the per-server transmission manager.

Uses hand-wired micro-clusters (see conftest) so each event boundary is
checked against closed-form expectations.
"""

import copy
import math

import pytest

from repro.cluster.request import EPS_MB, RequestState
from repro.core.admission import AdmissionOutcome
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.sim.events import EventState

from conftest import (
    build_micro_cluster, is_pending, live_events, make_client, make_video,
)


def one_server_cluster(bandwidth=10.0, n_videos=1, length=100.0, allocator="eftf"):
    videos = [make_video(video_id=i, length=length) for i in range(n_videos)]
    return build_micro_cluster(
        server_specs=[(bandwidth, 1e9)],
        videos=videos,
        holders={i: [0] for i in range(n_videos)},
        allocator=allocator,
    )


class TestContinuousTransmission:
    def test_single_stream_finishes_at_length(self):
        cluster = one_server_cluster(allocator="none")
        r, outcome = cluster.submit(0, client=make_client())
        assert outcome is AdmissionOutcome.ACCEPTED
        cluster.engine.run_until(99.0)
        assert not r.remaining(99.0) <= EPS_MB
        cluster.engine.run_until(101.0)
        assert r.state is RequestState.FINISHED
        assert r.finish_time == pytest.approx(100.0)
        assert cluster.finished == [r]

    def test_bytes_accounting_exact(self):
        cluster = one_server_cluster(allocator="none")
        cluster.submit(0, client=make_client())
        cluster.engine.run_until(200.0)
        cluster.managers[0].flush(200.0)
        # 100 Mb video sent exactly once.
        assert cluster.metrics.total_megabits == pytest.approx(100.0)

    def test_stream_frees_slot_on_finish(self):
        cluster = one_server_cluster(bandwidth=1.0, allocator="none")
        r1, o1 = cluster.submit(0, client=make_client())
        assert o1 is AdmissionOutcome.ACCEPTED
        _, o2 = cluster.submit(0, client=make_client())
        assert o2 is AdmissionOutcome.REJECTED  # link full
        cluster.engine.run_until(100.5)
        _, o3 = cluster.submit(0, client=make_client())
        assert o3 is AdmissionOutcome.ACCEPTED  # r1 finished, slot free


class TestWorkahead:
    def test_unbounded_client_absorbs_full_link(self):
        cluster = one_server_cluster(bandwidth=10.0)
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=math.inf))
        # 100 Mb at 10 Mb/s → transmission done at t=10.
        cluster.engine.run_until(10.5)
        assert r.remaining(10.5) <= EPS_MB
        assert r.finish_time == pytest.approx(10.0)
        # Playback still runs to t=100 client-side:
        assert r.playback_start + r.video.length == pytest.approx(100.0)

    def test_buffer_full_drops_stream_to_view_rate(self):
        cluster = one_server_cluster(bandwidth=10.0)
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=18.0))
        # Fill rate 10, drain 1 → buffer full at t = 18/9 = 2 s.
        cluster.engine.run_until(2.0)
        assert r.buffer_occupancy(2.0) == pytest.approx(18.0, abs=1e-6)
        cluster.engine.run_until(2.1)
        assert r.rate == pytest.approx(1.0)  # back to minimum flow
        # From t=2: 20 Mb sent, 80 left at 1 Mb/s → finish at 82.
        cluster.engine.run_until(83.0)
        assert r.finish_time == pytest.approx(82.0)

    def test_receive_cap_limits_boost(self):
        cluster = one_server_cluster(bandwidth=10.0)
        r, _ = cluster.submit(
            0, client=make_client(buffer_capacity=math.inf, receive_bandwidth=4.0)
        )
        cluster.engine.run_until(1.0)
        assert r.rate == pytest.approx(4.0)

    def test_early_finish_frees_capacity_for_later_arrivals(self):
        """The smoothing mechanism: workahead now → free slots later."""
        cluster = one_server_cluster(bandwidth=2.0, allocator="eftf")
        fast, _ = cluster.submit(0, client=make_client(buffer_capacity=math.inf))
        # Alone, the stream gets the whole 2 Mb/s link → done at t=50.
        cluster.engine.run_until(51.0)
        assert fast.remaining(51.0) <= EPS_MB
        # Two more streams now fit (link fully free):
        _, o1 = cluster.submit(0, client=make_client())
        _, o2 = cluster.submit(0, client=make_client())
        assert o1 is AdmissionOutcome.ACCEPTED
        assert o2 is AdmissionOutcome.ACCEPTED

    def test_eftf_two_streams_near_one_finishes_first(self):
        cluster = one_server_cluster(bandwidth=3.0)
        a, _ = cluster.submit(0, client=make_client(buffer_capacity=math.inf))
        cluster.engine.run_until(20.0)
        # a: sent 3*20=60, remaining 40.
        b, _ = cluster.submit(0, client=make_client(buffer_capacity=math.inf))
        # Now: base 1 each, spare 1 to a (remaining 40 < b's 100).
        cluster.engine.run_until(20.1)
        assert a.rate == pytest.approx(2.0)
        assert b.rate == pytest.approx(1.0)
        # a finishes at 20 + 40/2 = 40; then b gets everything.
        cluster.engine.run_until(40.5)
        assert a.remaining(40.5) <= EPS_MB
        assert b.rate == pytest.approx(3.0)


class TestBoundaryBookkeeping:
    def test_no_events_when_idle(self):
        cluster = one_server_cluster()
        cluster.engine.run_until(1000.0)
        assert cluster.engine.events_fired == 0

    def test_flush_settles_partial_transfers(self):
        cluster = one_server_cluster(allocator="none")
        cluster.submit(0, client=make_client())
        cluster.engine.run_until(30.0)
        cluster.managers[0].flush(30.0)
        assert cluster.metrics.total_megabits == pytest.approx(30.0)

    def test_manager_sync_matches_request_sync(self):
        """``flush`` integrates like ``Request.sync`` and nothing more:
        one batched metrics call, no rate touched, nobody finished, the
        pending boundary left where it was."""
        cluster = one_server_cluster(bandwidth=3.0)
        near, _ = cluster.submit(0, client=make_client(buffer_capacity=math.inf))
        cluster.engine.run_until(3.0)
        far, _ = cluster.submit(0, client=make_client())
        manager, metrics = cluster.managers[0], cluster.metrics
        before = metrics.total_megabits
        rates = (near.rate, far.rate)
        pending = manager._event
        clones = [copy.copy(near), copy.copy(far)]
        # Past near's finish (t = 3 + 91/2), so its transfer clamps.
        manager.flush(60.0)
        moved = sum(clone.sync(60.0) for clone in clones)
        assert [r.bytes_sent for r in (near, far)] == [
            clone.bytes_sent for clone in clones
        ]
        assert near.last_sync == far.last_sync == 60.0
        assert metrics.total_megabits - before == moved
        assert (near.rate, far.rate) == rates
        assert near.remaining(60.0) <= EPS_MB
        assert near.state is RequestState.ACTIVE and cluster.finished == []
        assert manager._event is pending and is_pending(pending)

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_playing_stream_below_view_rate_is_an_error(self, rate):
        """The pass's boundary rule covers the whole minimum-flow floor:
        any playing stream it leaves under ``b_view`` raises, not only
        an idle one — there is no drain boundary to schedule instead.
        A policy that hands out a negative extra is the only way in."""
        cluster = one_server_cluster(allocator="none")
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=math.inf))
        assert r.rate == r.view_bandwidth == 1.0
        allocator = cluster.managers[0].allocator
        allocator._share_spare = lambda visited, floor, spare: [
            (c, rate - c[2].view_bandwidth) for c in visited + floor
        ]
        with pytest.raises(RuntimeError, match="below its view bandwidth"):
            cluster.managers[0].reallocate(0.0)
        assert r.rate == rate

    def test_vcr_paused_full_buffer_has_no_boundary(self):
        """A VCR-paused viewer with a full buffer is legitimately idle:
        rate 0, and the pass returns no boundary for it."""
        cluster = one_server_cluster(allocator="none")
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=0.0))
        server = cluster.servers[0]
        r.pause_playback(0.0)
        server.lift(r)
        _, boundary, finished = cluster.managers[0].allocator.allocate_into(
            server, server.moved, 0.0
        )
        assert (r.rate, boundary, finished) == (0.0, math.inf, [])
        assert server.moved == [r]

    def test_unmoved_boundary_keeps_its_event(self):
        """An admit that finishes after the pending boundary leaves it
        in place: the same handle stays on the agenda, and nothing is
        cancelled by the time the agenda is drained."""
        cluster = one_server_cluster(bandwidth=10.0, allocator="none")
        manager = cluster.managers[0]
        cluster.submit(0, client=make_client())
        pending = manager._event
        assert min(e.time for e in live_events(cluster.engine)) == pending.time == 100.0
        cluster.engine.run_until(50.0)
        cluster.submit(0, client=make_client())
        # Two finish boundaries now exist: 100 and 150; next is 100.
        assert manager._event is pending and is_pending(pending)
        assert min(e.time for e in live_events(cluster.engine)) == 100.0
        cluster.engine.run_until(1000.0)
        assert len(cluster.finished) == 2
        assert cluster.engine.events_cancelled == 0

    @pytest.mark.parametrize(
        "allocator, buffer, then, length",
        [
            ("none", 0.0, 100.0, 20.0),  # a shorter video: earlier
            ("eftf", math.inf, 10.0, 100.0),  # shares the link: later
        ],
    )
    def test_moved_boundary_cancels_one_handle(
        self, allocator, buffer, then, length
    ):
        """A trigger that moves the boundary replaces the event: exactly
        one handle is cancelled, whichever way it moved."""
        cluster = build_micro_cluster(
            server_specs=[(10.0, 1e9)],
            videos=[make_video(video_id=0), make_video(video_id=1, length=length)],
            holders={0: [0], 1: [0]},
            allocator=allocator,
        )
        manager = cluster.managers[0]
        cluster.submit(0, client=make_client(buffer_capacity=buffer))
        cluster.engine.run_until(1.0)
        pending = manager._event
        assert pending.time == then
        cluster.submit(1, client=make_client(buffer_capacity=buffer))
        assert manager._event is not pending and is_pending(manager._event)
        assert (manager._event.time < then) == (allocator == "none")
        assert pending._state is EventState.CANCELLED
        cluster.engine.run_until(1000.0)
        assert len(cluster.finished) == 2
        assert cluster.engine.events_cancelled == 1

    def test_restore_after_deactivate_schedules_a_boundary(self):
        """``deactivate`` drops the handle it cancels: a later pass whose
        boundary lands on the cancelled event's very time still
        schedules one."""
        cluster = one_server_cluster(bandwidth=10.0, allocator="none")
        manager = cluster.managers[0]
        r, _ = cluster.submit(0, client=make_client())
        cancelled = manager._event
        cluster.engine.run_until(5.0)
        manager.deactivate()
        assert manager._event is None and not is_pending(cancelled)
        manager.reallocate(5.0)
        assert is_pending(manager._event) and manager._event.time == cancelled.time
        cluster.engine.run_until(1000.0)
        assert cluster.finished == [r] and r.finish_time == 100.0

    def test_reallocations_counted(self):
        cluster = one_server_cluster()
        cluster.submit(0, client=make_client())
        assert cluster.managers[0].reallocations >= 1


class TestBatchedBoundaryAdvance:
    """N streams hitting boundaries at the same timestamp fold into ONE
    engine event per server: the single boundary event re-integrates
    and re-allocates every stream together through allocate_into."""

    def test_one_pending_boundary_event_per_server(self):
        cluster = one_server_cluster(bandwidth=10.0, allocator="none")
        for _ in range(4):
            cluster.submit(0, client=make_client())
        live = [
            e for e in live_events(cluster.engine)
            if e.kind.startswith("tx-boundary")
        ]
        assert len(live) == 1
        assert live[0].kind == "tx-boundary:srv0"

    def test_same_timestamp_finishes_fold_into_one_event(self):
        # 4 identical streams on a 10 Mb/s server under the "none"
        # allocator: each gets b_view=1.0, so all four finish
        # transmission at exactly t=100 — one event must retire all.
        cluster = one_server_cluster(bandwidth=10.0, allocator="none")
        reqs = [cluster.submit(0, client=make_client())[0] for _ in range(4)]
        fired_before = cluster.engine.events_fired
        cluster.engine.run_until(100.0)
        assert all(r.remaining(100.0) <= EPS_MB for r in reqs)
        # One finish boundary (the fold) plus the post-finish
        # reallocation pass scheduling nothing: exactly 1 event fired.
        assert cluster.engine.events_fired - fired_before == 1


class TestOnePassPerEvent:
    """The boundary handler is ``reallocate`` and nothing else: one walk
    over the server's streams per event, traced or not."""

    def test_finish_callback_may_not_reallocate(self):
        """Finish subscribers may schedule, never reallocate
        synchronously — a nested pass would hand out rates twice."""
        cluster = one_server_cluster(bandwidth=1.0, allocator="none")
        manager = cluster.managers[0]
        manager.on_finish = lambda r: manager.reallocate(cluster.engine.now)
        cluster.submit(0, client=make_client())
        with pytest.raises(RuntimeError, match="server 0: reallocate re-entered"):
            cluster.engine.run_until(101.0)
        # The guard is released on the way out.
        manager.on_finish = None
        manager.reallocate(100.0)

    def test_finish_callback_may_schedule(self):
        cluster = one_server_cluster(bandwidth=1.0, allocator="none")
        engine, manager = cluster.engine, cluster.managers[0]
        later = []
        manager.on_finish = lambda r: engine.schedule(
            0.0, lambda: later.append(cluster.submit(0)[1])
        )
        cluster.submit(0, client=make_client())
        engine.run_until(101.0)
        assert later == [AdmissionOutcome.ACCEPTED]  # into the freed slot

    @staticmethod
    def _walls_and_finishes(tracer):
        """Two staged streams to their buffer walls and on to the end,
        counting the streams every walk over ``server.active`` is handed."""

        class CountedStreams(dict):
            visits = 0

            def __iter__(self):
                CountedStreams.visits += len(self)
                return super().__iter__()

            def values(self):
                CountedStreams.visits += len(self)
                return super().values()

        cluster = one_server_cluster(bandwidth=10.0)
        cluster.servers[0].active = CountedStreams()
        manager = cluster.managers[0]
        manager.tracer = tracer
        cluster.submit(0, client=make_client(buffer_capacity=18.0))
        cluster.engine.run_until(1.0)
        cluster.submit(0, client=make_client(buffer_capacity=6.0))
        cluster.engine.run_until(150.0)
        assert len(cluster.finished) == 2
        return CountedStreams.visits, manager.reallocations

    def test_tracing_visits_no_extra_stream(self):
        tracer = Tracer()
        traced = self._walls_and_finishes(tracer)
        assert tracer.counts[TraceKind.STREAM_BUFFER_FULL] == 2
        assert tracer.counts[TraceKind.SCHED_REALLOC] == traced[1]
        assert traced == self._walls_and_finishes(None)

    @staticmethod
    def _handed_and_active(tracer):
        """40 staged streams admitted one a second onto one server, run
        through their buffer walls and first finishes: per pass once all
        are in, (streams handed to allocate_into, streams active)."""
        n = 40
        cluster = build_micro_cluster(
            server_specs=[(60.0, 1e9)],
            videos=[make_video(video_id=i, length=200.0 + 5.0 * i)
                    for i in range(n)],
            holders={i: [0] for i in range(n)},
        )
        manager = cluster.managers[0]
        manager.tracer = tracer
        allocate = manager.allocator.allocate_into
        passes = []

        def allocate_into(server, requests, now):
            passes.append((now, len(requests), len(server.active)))
            return allocate(server, requests, now)

        manager.allocator.allocate_into = allocate_into
        client = make_client(buffer_capacity=18.0, receive_bandwidth=4.0)
        for i in range(n):
            cluster.engine.schedule_at(
                float(i), lambda i=i: cluster.submit(i, client=client)
            )
        cluster.engine.run_until(300.0)
        assert cluster.finished  # the floor order's head was reached
        return [(handed, active) for now, handed, active in passes
                if now >= n]

    def test_pass_is_handed_only_the_streams_that_move(self):
        """The floor order keeps every stream at its ``b_view`` floor out
        of the pass: the streams handed in stay under a tenth of the
        active ones, and tracing hands in no more."""
        tracer = Tracer()
        traced = self._handed_and_active(tracer)
        assert tracer.counts[TraceKind.STREAM_BUFFER_FULL] > 0
        plain = self._handed_and_active(None)
        assert traced == plain
        handed = sum(h for h, _ in plain)
        active = sum(a for _, a in plain)
        assert active >= 30 * len(plain)
        assert handed <= 0.10 * active

    def test_simultaneous_walls_traced_in_active_list_order(self):
        """EFTF pours into the nearer finish first, so the boosted pair
        is remembered short-video-first; the records still come out in
        active-list order, as a scan of the server would give them."""
        videos = [make_video(video_id=0, length=60.0),
                  make_video(video_id=1, length=20.0)]
        cluster = build_micro_cluster(
            server_specs=[(10.0, 1e9)], videos=videos, holders={0: [0], 1: [0]},
        )
        manager = cluster.managers[0]
        manager.tracer = tracer = Tracer()
        client = make_client(buffer_capacity=4.0, receive_bandwidth=2.0)
        long_, _ = cluster.submit(0, client=client)
        short, _ = cluster.submit(1, client=client)
        assert long_.rate == short.rate == 2.0
        cluster.engine.run_until(4.0)  # both walls: 4 Mb at 1 Mb/s surplus
        assert [
            record.fields["request"]
            for record in tracer.records_of(TraceKind.STREAM_BUFFER_FULL)
        ] == [long_.request_id, short.request_id]

    def test_stream_migrated_out_at_its_wall_is_not_traced(self):
        cluster = one_server_cluster(bandwidth=10.0)
        manager = cluster.managers[0]
        manager.tracer = tracer = Tracer()
        r, _ = cluster.submit(0, client=make_client(buffer_capacity=18.0))
        # Its wall is t = 2 (18 Mb at 9 Mb/s surplus); it leaves that
        # very instant, ahead of the boundary event.
        cluster.engine.run_until(1.0)
        manager.migrate_out(r, 2.0)
        assert TraceKind.STREAM_BUFFER_FULL not in tracer.counts


class TestAttachAtRateZero:
    """The allocator pass reads "above ``b_view`` on entry" as "boosted
    by this server's last pass" and reports such a stream at its buffer
    wall as ``stream.buffer_full``.  That holds only while every path
    hands a stream to a server at rate 0: a path that kept a stale rate
    would trace a wall that is not there."""

    CONFIGS = (
        "scenarios/chaos_elastic.json",  # failover moves, elastic drains
        "scenarios/predictive_vcr.json",  # VCR pauses
        "scenarios/prefix_batching_window.json",  # the prefix tier
        "bench/workloads/drm_overload_skew.json",  # DRM chains
    )

    @staticmethod
    def config(name):
        import dataclasses
        import json
        import pathlib

        from repro.scenario import load_scenario
        from repro.simulation import SimulationConfig

        path = pathlib.Path(__file__).resolve().parent.parent / name
        if name.startswith("scenarios/"):
            config = load_scenario(path).config
        else:
            config = SimulationConfig.from_dict(
                json.loads(path.read_text())["config"]
            )
        duration = min(config.duration, 7200.0)
        return dataclasses.replace(
            config, duration=duration, warmup=min(config.warmup, duration / 2)
        )

    def test_every_attach_path_hands_over_at_rate_zero(self, monkeypatch):
        import sys

        from repro.cluster.server import DataServer
        from repro.simulation import Simulation

        attach = DataServer.attach
        paths, stale = set(), set()

        def spy(server, request):
            # (manager method, its caller): which path attached it.
            frame = sys._getframe(1)
            path = f"{frame.f_back.f_code.co_name} -> {frame.f_code.co_name}"
            paths.add(path)
            if request.rate != 0.0:
                stale.add(path)
            return attach(server, request)

        monkeypatch.setattr(DataServer, "attach", spy)
        for name in self.CONFIGS:
            Simulation(self.config(name)).run()
        assert not stale, f"attached with a stale rate by: {sorted(stale)}"
        # Admission, DRM chains, failover moves and elastic drains.
        assert {
            "_decide -> admit", "execute_chain -> migrate_in",
            "_move -> migrate_in", "_drain_tick -> migrate_in",
        } <= paths, sorted(paths)
