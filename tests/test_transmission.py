"""Unit tests for the per-server transmission manager.

Uses hand-wired micro-clusters (see conftest) so each event boundary is
checked against closed-form expectations.
"""

import copy
import math

import pytest

from repro.cluster.request import RequestState
from repro.core.admission import AdmissionOutcome
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer

from conftest import build_micro_cluster, make_client, make_video


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
        assert not r.transmission_finished(99.0)
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
        assert r.transmission_finished(10.5)
        assert r.finish_time == pytest.approx(10.0)
        # Playback still runs to t=100 client-side:
        assert r.playback_end == pytest.approx(100.0)

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
        assert fast.transmission_finished(51.0)
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
        assert a.transmission_finished(40.5)
        assert b.rate == pytest.approx(3.0)


class TestBoundaryBookkeeping:
    def test_no_events_when_idle(self):
        cluster = one_server_cluster()
        cluster.engine.run_until(1000.0)
        assert cluster.engine.events_fired == 0

    def test_boundary_event_rescheduled_on_admission(self):
        cluster = one_server_cluster(bandwidth=10.0, allocator="none")
        cluster.submit(0, client=make_client())
        first_pending = cluster.engine.peek_time()
        assert first_pending == pytest.approx(100.0)
        cluster.engine.run_until(50.0)
        cluster.submit(0, client=make_client())
        # Two finish boundaries now exist: 100 and 150; next is 100.
        assert cluster.engine.peek_time() == pytest.approx(100.0)

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
        assert near.transmission_finished(60.0)
        assert near.state is RequestState.ACTIVE and cluster.finished == []
        assert manager._event is pending and pending.pending

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_playing_stream_below_view_rate_is_an_error(self, rate):
        """The general boundary rule covers the whole minimum-flow
        floor: any playing stream under ``b_view`` raises, not only an
        idle one — there is no drain boundary to schedule instead."""
        cluster = one_server_cluster(allocator="none")
        r, _ = cluster.submit(0, client=make_client())
        assert r.rate == r.view_bandwidth == 1.0
        r.rate = rate
        with pytest.raises(RuntimeError, match="below its view bandwidth"):
            cluster.managers[0]._next_boundary(0.0, [r])
        # A VCR-paused viewer with a full buffer is legitimately idle.
        r.pause_playback(0.0)
        r.rate = 0.0
        assert cluster.managers[0]._next_boundary(0.0, [r]) == math.inf

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
            e for e in cluster.engine.iter_pending()
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
        assert all(r.transmission_finished(100.0) for r in reqs)
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
