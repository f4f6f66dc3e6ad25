"""Tests for the live chaos plane (docs/ROBUSTNESS.md, "live chaos").

Four layers, then the harness:

* toxic transports — injected latency, stalls surfacing as drain
  backpressure, and mid-frame cuts that look like a dead peer;
* task supervision — trip/postmortem/restart semantics, the bounded
  restart budget, injected crashes, the heartbeat watcher, and the
  rule that an invariant violation is never papered over by a restart;
* client-side chaos plans — pure functions of ``(seed, index)``;
* resilient clients — a mid-stream disconnect becomes a typed error
  and (with a retry policy) a bounded-backoff re-request;
* the harness — ``run_chaos_serve`` tears down on an invariant
  violation and refuses to arm without a fault plan.  The committed
  chaos scenario end to end (kills mirrored, every affected session
  reconciled, equal digests across two same-seed runs) is the gate's,
  tested in tests/test_verify.py.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from conftest import loopback_pair, run, teardown
from repro import obs
from repro.core.failover import FailoverReport
from repro.faults.invariants import InvariantViolation
from repro.faults.retry import RetryPolicy
from repro.scenario import load_scenario
from repro.obs.spans import SpanPhase
from repro.serve import (
    ClusterGateway,
    FrameError,
    ServeConfig,
    TaskKilled,
    TaskSupervisor,
    ToxicConfig,
    ToxicWriter,
    read_frame,
    run_chaos_serve,
    write_frame,
)
from repro.serve.chaos import CUT_DELAY, ClientChaos, leaked_tasks, reconcile
from repro.serve.loadgen import (
    LoadGenerator,
    SessionOutcome,
    _LiveClient,
    arrival_trace,
)
from repro.sim.rng import RandomStreams
from repro.workload.trace import RequestSpec, Trace

REPO = Path(__file__).resolve().parent.parent
LOOPBACK_PATH = REPO / "scenarios" / "serve_loopback.json"


@pytest.fixture(scope="module")
def loopback():
    return load_scenario(LOOPBACK_PATH)


# ----------------------------------------------------------------------
# Toxic transports
# ----------------------------------------------------------------------
class TestToxicConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="latency"):
            ToxicConfig(latency=-1.0)
        with pytest.raises(ValueError, match="jitter"):
            ToxicConfig(jitter=1.5)
        with pytest.raises(ValueError, match="stall_every"):
            ToxicConfig(stall_every=-1)
        with pytest.raises(ValueError, match="stall_seconds"):
            ToxicConfig(stall_seconds=-0.1)
        with pytest.raises(ValueError, match="cut_after_bytes"):
            ToxicConfig(cut_after_bytes=-5)

    def test_empty(self):
        assert ToxicConfig().empty
        assert ToxicConfig(jitter=0.5).empty  # jitter alone does nothing
        assert not ToxicConfig(latency=0.01).empty
        assert not ToxicConfig(stall_every=3, stall_seconds=0.1).empty
        assert not ToxicConfig(cut_after_bytes=100).empty


class TestToxicTransports:
    def test_latency_delays_but_delivers_intact(self):
        async def scenario_run():
            server, (cr, cw), (pr, pw) = await loopback_pair()
            toxic = ToxicWriter(cw, ToxicConfig(latency=0.02))
            t0 = asyncio.get_running_loop().time()
            await write_frame(toxic, {"type": "request", "video": 3})
            frame = await read_frame(pr)
            elapsed = asyncio.get_running_loop().time() - t0
            await teardown(server, toxic, pw)
            return frame, elapsed, toxic

        frame, elapsed, toxic = run(scenario_run())
        assert frame.header == {"type": "request", "video": 3}
        assert elapsed >= 0.02
        assert toxic.delayed_s >= 0.02
        assert toxic.writes == 1 and not toxic.cut

    def test_stall_surfaces_as_drain_backpressure(self):
        """A stall above the peer's send_timeout must make a bounded
        ``write_frame`` raise TimeoutError — exactly how the gateway's
        retry path perceives injected backpressure."""

        async def scenario_run():
            server, (cr, cw), (pr, pw) = await loopback_pair()
            toxic = ToxicWriter(
                cw, ToxicConfig(stall_every=1, stall_seconds=0.5)
            )
            with pytest.raises(asyncio.TimeoutError):
                await write_frame(toxic, {"type": "chunk"}, timeout=0.05)
            stalls = toxic.stalls
            await teardown(server, toxic, pw)
            return stalls

        assert run(scenario_run()) >= 1

    def test_cut_mid_frame_leaves_partial_bytes_and_poisons_writer(self):
        async def scenario_run():
            server, (cr, cw), (pr, pw) = await loopback_pair()
            toxic = ToxicWriter(cw, ToxicConfig(cut_after_bytes=10))
            with pytest.raises(ConnectionResetError, match="mid-frame"):
                await write_frame(
                    toxic, {"type": "chunk", "seq": 0}, b"\x00" * 64
                )
            assert toxic.cut
            # Every later write is refused: the connection is dead.
            with pytest.raises(ConnectionResetError):
                toxic.write(b"more")
            # The peer must never decode a silently truncated frame: it
            # sees a framing/transport error (or, at worst, a clean EOF
            # if the partial prefix never left the kernel).
            try:
                frame = await read_frame(pr)
            except (FrameError, ConnectionError, OSError):
                frame = None
            await teardown(server, pw)
            return frame

        assert run(scenario_run()) is None


# ----------------------------------------------------------------------
# Task supervision
# ----------------------------------------------------------------------
class TestTaskSupervisor:
    def test_clean_exit_is_not_a_trip(self):
        async def scenario_run():
            sup = TaskSupervisor(should_stop=lambda: False)

            async def quick():
                await asyncio.sleep(0)

            task = sup.spawn("t", quick)
            await task
            await sup.close()
            return sup

        sup = run(scenario_run())
        assert sup.trips == 0 and sup.restarts == 0
        assert sup.report()["tasks"]["t"]["alive"] is False

    def test_crash_restarts_within_budget(self):
        async def scenario_run():
            sup = TaskSupervisor(
                should_stop=lambda: False, restart_limit=3, restart_delay=0.0
            )
            calls = []

            async def flaky():
                calls.append(1)
                if len(calls) <= 2:
                    raise ValueError(f"boom {len(calls)}")

            await sup.spawn("flaky", flaky, where="flaky_loop")
            await sup.close()
            return sup, calls

        sup, calls = run(scenario_run())
        assert len(calls) == 3  # two crashes, then a clean run
        assert sup.trips == 2 and sup.restarts == 2
        row = sup.report()["tasks"]["flaky"]
        assert row["restarts"] == 2 and row["fatal"] is None

    def test_restart_budget_exhaustion_is_fatal(self):
        async def scenario_run():
            sup = TaskSupervisor(
                should_stop=lambda: False, restart_limit=1, restart_delay=0.0
            )

            async def doomed():
                raise ValueError("always")

            task = sup.spawn("doomed", doomed)
            with pytest.raises(ValueError, match="always"):
                await task
            await sup.close()
            return sup

        sup = run(scenario_run())
        assert sup.trips == 2 and sup.restarts == 1
        assert "ValueError" in sup.report()["tasks"]["doomed"]["fatal"]

    def test_invariant_violation_is_never_restarted(self):
        async def scenario_run():
            sup = TaskSupervisor(
                should_stop=lambda: False, restart_limit=5, restart_delay=0.0
            )

            async def corrupt():
                raise InvariantViolation(
                    "capacity", "server 0", "negative bandwidth", 1.0, []
                )

            task = sup.spawn("corrupt", corrupt)
            with pytest.raises(InvariantViolation):
                await task
            await sup.close()
            return sup

        sup = run(scenario_run())
        assert sup.trips == 1 and sup.restarts == 0

    def test_inject_crash_walks_the_trip_path(self):
        async def scenario_run():
            stopping = []
            sup = TaskSupervisor(
                should_stop=lambda: bool(stopping), restart_delay=0.0,
                restart_limit=10,
            )

            async def loop():
                while True:
                    await asyncio.sleep(0.005)

            task = sup.spawn("loop", loop)
            await asyncio.sleep(0.02)
            assert sup.inject_crash("loop", reason="chaos says hi")
            await asyncio.sleep(0.02)  # restarted and running again
            assert not task.done()
            # A second kill during shutdown must not restart.
            stopping.append(True)
            assert sup.inject_crash("loop", reason="final")
            with pytest.raises(TaskKilled, match="final"):
                await task
            await sup.close()
            return sup

        sup = run(scenario_run())
        assert sup.injected_kills == 2
        assert sup.trips == 2 and sup.restarts == 1

    def test_inject_crash_unknown_or_dead_task_is_a_miss(self):
        async def scenario_run():
            sup = TaskSupervisor(should_stop=lambda: False)
            assert not sup.inject_crash("nope")

            async def quick():
                await asyncio.sleep(0)

            task = sup.spawn("done", quick)
            await task
            assert not sup.inject_crash("done")
            await sup.close()
            return sup

        assert run(scenario_run()).injected_kills == 0

    def test_heartbeat_watcher_trips_a_wedged_loop(self):
        async def scenario_run():
            sup = TaskSupervisor(
                should_stop=lambda: False,
                heartbeat_timeout=0.05,
                restart_delay=0.0,
                restart_limit=50,
            )

            async def wedged():
                sup.beat("wedged")
                await asyncio.sleep(30.0)  # never beats again

            task = sup.spawn("wedged", wedged)
            # Wait for a *completed* trip (not just the watcher's kill
            # request) so the cancel below lands on a settled wrapper.
            for _ in range(200):
                await asyncio.sleep(0.01)
                if sup.trips:
                    break
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await sup.close()
            return sup

        sup = run(scenario_run())
        assert sup.heartbeat_trips >= 1
        assert sup.trips >= 1

    def test_a_swallowed_kill_lands_at_the_next_beat(self):
        # asyncio.wait_for (3.11) can eat the cancellation of a loop
        # killed mid-send; the kill must still become a trip.
        async def scenario_run():
            sup = TaskSupervisor(should_stop=lambda: False, restart_delay=0.0)
            beats = []

            async def deaf():
                try:
                    await asyncio.sleep(30.0)
                except asyncio.CancelledError:
                    if beats:
                        raise
                    # else: what wait_for does when its inner just finished
                beats.append(len(beats))
                sup.beat("deaf")
                await asyncio.sleep(30.0)

            task = sup.spawn("deaf", deaf)
            await asyncio.sleep(0.01)
            assert sup.inject_crash("deaf", "chaos")
            for _ in range(200):
                await asyncio.sleep(0.01)
                if sup.trips:
                    break
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return sup, beats

        sup, beats = run(scenario_run())
        assert sup.trips == 1 and sup.restarts == 1
        assert beats == [0]  # the restarted loop was not killed again

    def test_a_loop_that_never_beats_is_not_monitored(self):
        # ServeConfig.heartbeat_timeout: "only loops that beat are
        # monitored" — the gateway's stats sampler sleeps between
        # samples and must not be tripped for it.
        async def scenario_run():
            sup = TaskSupervisor(
                should_stop=lambda: False, heartbeat_timeout=0.05,
                restart_delay=0.0, restart_limit=50,
            )
            quiet = sup.spawn("quiet", lambda: asyncio.sleep(0.4))
            beating = sup.spawn("beating", lambda: asyncio.sleep(30.0))
            sup.beat("beating")
            await quiet
            beating.cancel()
            with pytest.raises(asyncio.CancelledError):
                await beating
            await sup.close()
            return sup.report()

        report = run(scenario_run())
        assert report["tasks"]["quiet"]["trips"] == 0
        assert report["tasks"]["beating"]["trips"] >= 1

    def test_trip_dumps_postmortem_with_task_fields(self, tmp_path):
        path = tmp_path / "postmortem.jsonl"

        async def scenario_run():
            tracer = obs.Tracer()
            recorder = obs.FlightRecorder(tracer, path)
            sup = TaskSupervisor(
                should_stop=lambda: False,
                recorder=lambda: recorder,
                tracer=tracer,
                restart_limit=0,
                restart_delay=0.0,
            )

            async def doomed():
                raise RuntimeError("kaput")

            task = sup.spawn("serve.server.2", doomed, where="server_loop.2")
            with pytest.raises(RuntimeError):
                await task
            await sup.close()
            return tracer

        tracer = run(scenario_run())
        meta = json.loads(path.read_text().splitlines()[0])
        assert meta["reason"] == "crash"
        assert "server_loop.2" in meta["detail"]
        assert "kaput" in meta["detail"]
        assert meta["task"] == "serve.server.2"
        assert meta["task_trips"] == 1
        trips = list(tracer.records_of(obs.TraceKind.TASK_TRIP))
        assert len(trips) == 1
        assert trips[0].fields["restarting"] is False

    def test_duplicate_name_rejected_while_running(self):
        async def scenario_run():
            sup = TaskSupervisor(should_stop=lambda: False)

            async def loop():
                await asyncio.sleep(5.0)

            task = sup.spawn("x", loop)
            with pytest.raises(RuntimeError, match="already supervised"):
                sup.spawn("x", loop)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await sup.close()

        run(scenario_run())


# ----------------------------------------------------------------------
# Client-side chaos plans
# ----------------------------------------------------------------------
def _trace(n=8, spacing=4.0):
    return Trace([
        RequestSpec(time=i * spacing, video_id=i % 3) for i in range(n)
    ])


class TestClientChaos:
    def test_plans_are_pure_in_seed_and_index(self):
        trace = _trace()
        a = ClientChaos(trace, RandomStreams(seed=9), cut_prob=0.5)
        b = ClientChaos(trace, RandomStreams(seed=9), cut_prob=0.5)
        # Draw b in reverse order: per-index substreams make the plan
        # independent of which sessions were planned before it.
        plans_a = [a.plan_for(i) for i in range(len(trace))]
        plans_b = [b.plan_for(i) for i in reversed(range(len(trace)))][::-1]
        for pa, pb in zip(plans_a, plans_b):
            assert (pa is None) == (pb is None)
            if pa is not None:
                assert pa.cut_vt == pb.cut_vt

    def test_different_seeds_diverge(self):
        trace = _trace(n=16)
        a = ClientChaos(trace, RandomStreams(seed=1), cut_prob=1.0)
        b = ClientChaos(trace, RandomStreams(seed=2), cut_prob=1.0)
        cuts_a = [a.plan_for(i).cut_vt for i in range(len(trace))]
        cuts_b = [b.plan_for(i).cut_vt for i in range(len(trace))]
        assert cuts_a != cuts_b

    def test_cut_times_land_in_the_configured_window(self):
        trace = _trace()
        chaos = ClientChaos(trace, RandomStreams(seed=3), cut_prob=1.0)
        lo, hi = CUT_DELAY
        for i in range(len(trace)):
            plan = chaos.plan_for(i)
            assert trace[i].time + lo <= plan.cut_vt <= trace[i].time + hi
        assert chaos.cuts_planned == len(trace)

    def test_fault_free_sessions_get_no_plan(self):
        chaos = ClientChaos(_trace(), RandomStreams(seed=3), cut_prob=0.0)
        assert all(chaos.plan_for(i) is None for i in range(8))
        assert chaos.cuts_planned == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="cut_prob"):
            ClientChaos(_trace(), RandomStreams(seed=0), cut_prob=1.5)


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def _outcome(index, outcome, rids, accepted_reason=None):
    out = SessionOutcome(index=index, time=0.0, video=0, outcome=outcome)
    out.request_ids = list(rids)
    out.reason = accepted_reason
    return out


class TestReconcile:
    def test_classification_buckets(self):
        failures = [
            FailoverReport(
                server_id=1, time=10.0, relocated=[1, 2], dropped=[3, 4, 5, 9]
            ),
        ]
        sessions = [
            _outcome(0, "accepted", [1], "finished"),
            _outcome(1, "accepted", [2], "finished"),
            # Dropped, re-requested, finished under a new id.
            _outcome(2, "accepted", [3, 7], "finished"),
            # Dropped, re-request denied by admission.
            _outcome(3, "rejected", [4]),
            # Dropped and the retry budget ran dry.
            _outcome(4, "lost", [5]),
            # Request id 9 belongs to nobody: accounting bug.
        ]
        recon = reconcile(failures, sessions)
        assert recon["migrated"] == [1, 2]
        assert recon["recovered"] == [3]
        assert recon["rejected"] == [4]
        assert recon["lost"] == [5]
        assert recon["unmatched"] == [9]
        assert recon["affected"] == 6
        assert recon["accounted"] == 5

    def test_no_failures_is_all_empty(self):
        recon = reconcile([], [_outcome(0, "accepted", [1], "finished")])
        assert recon["affected"] == 0
        assert recon["unmatched"] == []


# ----------------------------------------------------------------------
# Resilient clients against a scripted fake gateway
# ----------------------------------------------------------------------
class _FakeGateway:
    """Scripted gateway: each connection runs the next behavior.

    Behaviors: ``"abort"`` — admit, stream one chunk, then cut the
    socket; ``"finish"`` — admit, one chunk, clean ``end``; ``"reject"``
    — deny admission; ``"drop"`` — admit then send ``end`` with reason
    ``dropped`` and a virtual drop stamp.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []  # request headers as received
        self._served = 0
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0
        )
        return self._server.sockets[0].getsockname()[1]

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        behavior = self.script[min(self._served, len(self.script) - 1)]
        self._served += 1
        try:
            frame = await read_frame(reader, timeout=2.0)
            self.requests.append(dict(frame.header))
            rid = 100 + self._served
            if behavior == "reject":
                await write_frame(
                    writer, {"type": "reject", "reason": "bandwidth"}
                )
                return
            await write_frame(writer, {
                "type": "admit", "request": rid, "video": 0, "server": 0,
                "size_mb": 10.0, "view_mb_s": 1.0,
            })
            await write_frame(
                writer,
                {"type": "chunk", "t": float(frame.header["t"]),
                 "server": 0, "mb": 1.0},
                b"\x00" * 8,
            )
            if behavior == "abort":
                # Let the client read the admit + chunk before the RST
                # discards anything still buffered on its side.
                await asyncio.sleep(0.05)
                writer.transport.abort()
                return
            if behavior == "drop":
                await write_frame(writer, {
                    "type": "end", "reason": "dropped", "request": rid,
                    "t": float(frame.header["t"]) + 1.5,
                })
                return
            await write_frame(writer, {
                "type": "end", "reason": "finished", "request": rid,
                "delivered_mb": 10.0,
            })
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _run_client(script, retry=None, seed=7, t=3.0):
    fake = _FakeGateway(script)
    port = await fake.start()
    loop = asyncio.get_running_loop()
    client = _LiveClient(
        ServeConfig(port=port),
        index=0,
        spec=RequestSpec(time=t, video_id=0),
        rng=RandomStreams(seed=seed),
        wall_for=lambda vt: loop.time(),  # re-requests fire immediately
        retry=retry,
    )
    outcome = await client.run()
    await fake.stop()
    return fake, outcome


class TestResilientClient:
    def test_mid_stream_abort_without_retry_is_typed_not_raised(self):
        fake, out = run(_run_client(["abort"]))
        # The session error never escapes as a traceback; it is typed.
        assert out.outcome == "accepted"  # admitted before the cut
        assert out.error_type in (
            "ConnectionResetError", "ConnectionClosed", "FrameError",
        )
        assert out.retries == 0
        assert out.request_ids == [101]

    def test_abort_then_reconnect_recovers(self):
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
        fake, out = run(_run_client(["abort", "finish"], retry=retry))
        assert out.outcome == "accepted"
        assert out.reason == "finished"
        assert out.retries == 1
        assert out.request_ids == [101, 102]
        # The re-request announced itself and advanced its timestamp.
        assert fake.requests[1]["retry"] == 1
        assert fake.requests[1]["t"] > fake.requests[0]["t"]

    def test_drop_anchors_re_request_on_the_drop_stamp(self, monkeypatch):
        from repro.faults import retry as backoff

        monkeypatch.setattr(backoff, "JITTER", 0.0)
        retry = RetryPolicy(max_attempts=2, base_delay=0.5, max_delay=4.0)
        serve = ServeConfig()
        fake, out = run(_run_client(["drop", "finish"], retry=retry))
        assert out.reason == "finished" and out.retries == 1
        anchor = fake.requests[0]["t"] + 1.5  # the drop frame's stamp
        expected = anchor + serve.to_virtual(serve.retry_margin) + 0.5
        assert fake.requests[1]["t"] == pytest.approx(expected)

    def test_budget_exhaustion_is_lost(self):
        retry = RetryPolicy(max_attempts=2, base_delay=0.5, max_delay=4.0)
        fake, out = run(_run_client(["abort", "abort"], retry=retry))
        assert out.outcome == "lost"
        assert out.retries == 1
        assert len(fake.requests) == 2

    def test_reject_on_re_request_is_terminal(self):
        retry = RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=4.0)
        fake, out = run(_run_client(["abort", "reject"], retry=retry))
        assert out.outcome == "rejected"
        assert out.retries == 1
        assert len(fake.requests) == 2  # no third attempt after a verdict

    def test_retry_timeline_is_seed_deterministic(self):
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)
        fake_a, _ = run(_run_client(["abort", "finish"], retry=retry, seed=11))
        fake_b, _ = run(_run_client(["abort", "finish"], retry=retry, seed=11))
        fake_c, _ = run(_run_client(["abort", "finish"], retry=retry, seed=12))
        assert fake_a.requests[1]["t"] == fake_b.requests[1]["t"]
        assert fake_a.requests[1]["t"] != fake_c.requests[1]["t"]

    def test_replay_caches_no_per_attempt_generator(self):
        """Each backoff draw comes from an uncached one-shot stream, so
        a load generator's RandomStreams keeps nothing per client or
        per attempt after a replay with retries."""
        retry = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=4.0)

        async def replay():
            fake = _FakeGateway(["abort", "abort", "finish"])
            port = await fake.start()
            generator = LoadGenerator(
                ServeConfig(port=port),
                Trace([RequestSpec(time=3.0, video_id=0)]),
                retry=retry,
                seed=7,
            )
            report = await generator.run()
            await fake.stop()
            return generator, report

        generator, report = run(replay())
        (session,) = report.sessions
        assert session.reason == "finished" and session.retries == 2
        assert generator._rng._streams == {}

# ----------------------------------------------------------------------
# Gateway timeout paths (handshake + send) — zero leaked tasks
# ----------------------------------------------------------------------
class TestGatewayTimeouts:
    def test_handshake_timeout_counts_error_and_leaks_nothing(self, loopback):
        async def scenario_run():
            serve = ServeConfig(port=0)
            gateway = ClusterGateway(loopback.config, serve)
            await gateway.start()
            # A mute client: connects and never sends a request frame,
            # so the gateway hangs up on it at the handshake bound.
            reader, writer = await asyncio.open_connection(
                serve.host, gateway.port
            )
            assert await reader.read() == b""
            errors = gateway.registry.counter("serve.handshake_errors").value
            writer.close()
            await writer.wait_closed()
            summary = await gateway.stop()
            return errors, summary, leaked_tasks()

        errors, summary, leaked = run(scenario_run())
        assert errors == 1
        assert summary["serve"]["handshake_errors"] == 1
        assert summary["serve"]["sessions_active"] == 0
        assert leaked == []

    def test_send_timeout_closes_session_after_bounded_retries(
        self, loopback
    ):
        """A gateway-side stall above the whole retry budget (30 s
        against 4 x 5 s) must burn it, close the session as
        ``send_failed``, and leak nothing.  A retry waits for the drain
        again; it never re-writes the frame."""
        toxics = []

        def wrap(writer):
            toxics.append(ToxicWriter(
                writer, ToxicConfig(stall_every=1, stall_seconds=30.0)
            ))
            return toxics[-1]

        async def scenario_run():
            serve = ServeConfig(port=0)
            gateway = ClusterGateway(
                loopback.config, serve, wrap_writer=wrap
            )
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                serve.host, gateway.port
            )
            await write_frame(
                writer, {"type": "request", "video": 0, "t": 0.0}
            )
            # Read whatever arrives until the gateway gives up on us.
            frames = []
            try:
                while True:
                    frame = await read_frame(reader, timeout=60.0)
                    if frame is None:
                        break
                    frames.append(frame)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            summary = await gateway.stop()
            spans = gateway.spans
            return frames, summary, spans, leaked_tasks()

        frames, summary, spans, leaked = run(scenario_run())
        assert frames[0].type == "admit"
        assert summary["serve"]["send_retries"] >= 1
        seqs = [f.header["seq"] for f in frames if f.type == "chunk"]
        assert seqs == list(range(len(seqs))), "a chunk arrived twice"
        assert toxics[0].writes == len(frames)
        assert summary["serve"]["sessions_active"] == 0
        closes = [
            s for s in spans.recent(50)
            for e in s.events
            if e.phase is SpanPhase.CLOSE
            and e.fields.get("reason") == "send_failed"
        ]
        assert closes, "session must be closed as send_failed"
        assert leaked == []


    def test_transient_stall_is_absorbed_by_the_retry_budget(
        self, loopback, monkeypatch
    ):
        """A stall belongs to the write that triggered it: a retried
        drain waits out only the remainder, so a stall longer than one
        ``send_timeout`` but inside the whole retry budget (0.08 s
        against 4 x 0.05 s) costs a retry, not the session.  The
        timeout is cut to 0.05 s so the stall stays inside the client's
        staging buffer."""
        monkeypatch.setattr(ServeConfig, "send_timeout", 0.05)
        toxics = []

        def wrap(writer):
            toxics.append(ToxicWriter(
                writer, ToxicConfig(stall_every=3, stall_seconds=0.08)
            ))
            return toxics[-1]

        async def scenario_run():
            serve = ServeConfig(port=0)
            gateway = ClusterGateway(
                loopback.config, serve, wrap_writer=wrap
            )
            await gateway.start()
            trace = arrival_trace(gateway.bridge, max_sessions=1)
            report = await LoadGenerator(
                ServeConfig(port=gateway.port), trace
            ).run()
            summary = await gateway.stop()
            return report, summary, gateway.spans, leaked_tasks()

        report, summary, spans, leaked = run(scenario_run())
        (session,) = report.sessions
        assert session.reason == "finished" and session.underruns == 0
        assert summary["serve"]["send_retries"] >= 1
        # One stall per third write, however many drains each took.
        assert toxics[0].stalls == toxics[0].writes // 3 >= 1
        (span,) = spans.recent(50)
        assert [
            e.fields["reason"] for e in span.events
            if e.phase is SpanPhase.CLOSE
        ] == ["finished"]
        assert leaked == []

    def test_send_timeout_bounds_a_real_socket_that_stops_reading(
        self, loopback, monkeypatch
    ):
        """No injected stall: a client that never reads lets the kernel
        buffers and then the transport's own fill past the high-water
        mark.  The uncongested fast path must hand over to the bounded
        drain, burn the retry budget and close as ``send_failed``."""
        # ~12 MB of payload per wall second fills loopback's few MB of
        # socket buffering, and the whole budget (4 x 0.05 s) runs out,
        # well before the policy clock passes the scenario's horizon.
        monkeypatch.setattr(ServeConfig, "bytes_per_megabit", 100_000)
        monkeypatch.setattr(ServeConfig, "send_timeout", 0.05)

        async def scenario_run():
            serve = ServeConfig(port=0)
            gateway = ClusterGateway(loopback.config, serve)
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                serve.host, gateway.port
            )
            await write_frame(
                writer, {"type": "request", "video": 0, "t": 0.0}
            )
            # The gateway must give up on the session before the
            # policy clock passes the horizon.
            admits = gateway.registry.counter("serve.admits")
            while gateway.sessions or not admits.value:
                assert gateway.bridge.now < loopback.config.duration, (
                    "gateway never gave up"
                )
                await asyncio.sleep(0.05)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            summary = await gateway.stop()
            return summary, gateway.spans, leaked_tasks()

        summary, spans, leaked = run(scenario_run())
        assert summary["serve"]["send_retries"] == ServeConfig.send_retries
        assert summary["serve"]["sessions_active"] == 0
        (span,) = spans.recent(50)
        assert [
            e.fields["reason"] for e in span.events
            if e.phase is SpanPhase.CLOSE
        ] == ["send_failed"]
        assert leaked == []


# ----------------------------------------------------------------------
# The harness, end to end on the committed scenario
# ----------------------------------------------------------------------
class TestChaosServeEndToEnd:
    def test_invariant_violation_is_reported_and_torn_down(
        self, loopback, tmp_path, monkeypatch
    ):
        """stop() re-raising a violation out of the policy loop must not
        strand the pacing tasks: the live leg aborts the gateway and
        reports the violation with nothing leaked."""
        async def violated_stop(gateway):
            gateway.begin_drain()
            raise InvariantViolation("capacity", "server 0", "over", 1.0, [])

        monkeypatch.setattr(ClusterGateway, "stop", violated_stop)
        report = run(run_chaos_serve(
            loopback.config, max_sessions=3,
            postmortem=tmp_path / "pm.jsonl",
        ))
        assert "[capacity] server 0" in report["invariant_violation"]
        assert report["leaked_tasks"] == []

    def test_arming_requires_a_fault_plan(self, loopback):
        from repro.serve.chaos import ChaosPlane

        async def scenario_run():
            gateway = ClusterGateway(loopback.config, ServeConfig(port=0))
            with pytest.raises(RuntimeError, match="faults"):
                ChaosPlane(gateway).arm()

        run(scenario_run())
