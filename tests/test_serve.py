"""Tests for the live serving runtime (repro.serve, docs/SERVING.md).

Covers the four layers separately and then end-to-end:

* protocol — frame codec round trips and malformed-input rejection;
* config — wall-clock knob validation and serialization;
* bridge — the parity seam: replay determinism, interleaved-advance
  invariance, and the virtual-time ordering guard;
* gateway + loadgen — the acceptance loop on the committed loopback
  scenario: ≥ 20 concurrent live sessions, zero client underruns,
  decisions byte-identical to a virtual-time replay, graceful drain
  (including SIGTERM in a subprocess) with zero leaked asyncio tasks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenario import load_scenario
from repro.serve import (
    ClusterGateway,
    FrameError,
    LoadGenerator,
    ParityError,
    PolicyBridge,
    ServeConfig,
    encode_frame,
    read_frame,
    run_chaos_serve,
    write_frame,
)
from repro.serve.bridge import decisions_digest
from repro.serve.loadgen import arrival_trace
from repro.serve.protocol import MAX_PAYLOAD_BYTES
from repro.workload.trace import RequestSpec

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "scenarios" / "serve_loopback.json"


def run(coro):
    """Run *coro* in a fresh event loop (tests stay plain functions)."""
    return asyncio.run(coro)


async def feed_reader(data: bytes) -> asyncio.StreamReader:
    """A StreamReader pre-loaded with *data* then EOF (loop-bound)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def decode(data: bytes):
    """Decode exactly one frame from raw bytes in a fresh loop."""

    async def _run():
        return await read_frame(await feed_reader(data))

    return asyncio.run(_run())


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(SCENARIO_PATH)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_control_frame(self):
        data = encode_frame({"type": "admit", "server": 2})
        frame = decode(data)
        assert frame.type == "admit"
        assert frame.header["server"] == 2
        assert frame.payload == b""

    def test_round_trip_with_payload(self):
        payload = bytes(range(256))
        data = encode_frame({"type": "chunk", "mb": 1.5}, payload)
        frame = decode(data)
        assert frame.payload == payload
        assert frame.header["payload"] == len(payload)

    def test_multiple_frames_stream(self):
        data = encode_frame({"type": "a"}) + encode_frame(
            {"type": "b"}, b"xy"
        )
        async def read_all():
            reader = await feed_reader(data)
            frames = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return frames
                frames.append(frame)

        frames = run(read_all())
        assert [f.type for f in frames] == ["a", "b"]
        assert frames[1].payload == b"xy"

    def test_clean_eof_returns_none(self):
        assert decode(b"") is None

    def test_truncated_prefix_is_frame_error(self):
        with pytest.raises(FrameError, match="length prefix"):
            decode(b"\x00\x00")

    def test_truncated_body_is_frame_error(self):
        data = encode_frame({"type": "admit"})[:-3]
        with pytest.raises(FrameError, match="frame body"):
            decode(data)

    def test_truncated_payload_is_frame_error(self):
        data = encode_frame({"type": "chunk"}, b"abcdef")[:-2]
        with pytest.raises(FrameError, match="payload"):
            decode(data)

    def test_oversized_declared_header_rejected_without_allocating(self):
        import struct

        data = struct.pack(">I", (1 << 20) + 1)
        with pytest.raises(FrameError, match="exceeds bound"):
            decode(data)

    def test_non_object_header_rejected(self):
        body = b'["not", "a", "dict"]'
        import struct

        data = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError, match="JSON object"):
            decode(data)

    def test_bad_payload_declaration_rejected(self):
        import struct

        body = json.dumps({"type": "chunk", "payload": -5}).encode()
        data = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError, match="payload length"):
            decode(data)

    def test_encode_oversized_payload_rejected(self):
        with pytest.raises(FrameError, match="payload too large"):
            encode_frame({"type": "chunk"}, b"x" * (MAX_PAYLOAD_BYTES + 1))

    def test_read_timeout_propagates(self):
        async def scenario():
            reader = asyncio.StreamReader()  # nothing ever arrives
            with pytest.raises(asyncio.TimeoutError):
                await read_frame(reader, timeout=0.01)

        run(scenario())

    def test_write_frame_round_trips_over_loopback(self):
        async def scenario():
            received = []

            async def handler(reader, writer):
                received.append(await read_frame(reader))
                writer.close()

            server = await asyncio.start_server(
                handler, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            await write_frame(writer, {"type": "request", "video": 3}, b"p")
            writer.close()
            await asyncio.sleep(0.05)
            server.close()
            await server.wait_closed()
            return received[0]

        frame = run(scenario())
        assert frame.type == "request"
        assert frame.payload == b"p"


# ----------------------------------------------------------------------
# ServeConfig
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_round_trip(self):
        cfg = ServeConfig(compression=25.0, tick=0.02, guard=0.5)
        assert ServeConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_with_telemetry_knobs(self):
        cfg = ServeConfig(
            ops_port=9402, stats_interval=0.5, progress_interval=3.0
        )
        assert ServeConfig.from_dict(cfg.to_dict()) == cfg
        disabled = ServeConfig(ops_port=None)
        assert ServeConfig.from_dict(disabled.to_dict()).ops_port is None

    def test_clock_conversions_invert(self):
        cfg = ServeConfig(compression=40.0)
        assert cfg.to_virtual(cfg.to_wall(123.0)) == pytest.approx(123.0)

    def test_guard_must_exceed_reorder_window(self):
        with pytest.raises(ValueError, match="guard"):
            ServeConfig(guard=0.1, reorder_window=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compression": 0.0},
            {"tick": -1.0},
            {"bytes_per_megabit": 0},
            {"send_retries": -1},
            {"drain_timeout": 0.0},
            {"task_restart_limit": -1},
            {"ops_port": 70000},
            {"ops_port": -1},
            {"stats_interval": 0.0},
            {"progress_interval": -2.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="warp_factor"):
            ServeConfig.from_dict({"warp_factor": 9})


# ----------------------------------------------------------------------
# PolicyBridge (the parity seam)
# ----------------------------------------------------------------------
class TestPolicyBridge:
    def test_replay_is_deterministic(self, scenario):
        trace = arrival_trace(scenario.config, max_sessions=30)
        a = PolicyBridge(scenario.config).replay(trace)
        b = PolicyBridge(scenario.config).replay(trace)
        assert decisions_digest(a) == decisions_digest(b)

    def test_interleaved_advances_do_not_change_decisions(self, scenario):
        """The formal core of the parity contract: pacing reads between
        arrivals (what the live gateway does) fire the same events."""
        trace = arrival_trace(scenario.config, max_sessions=30)
        reference = PolicyBridge(scenario.config).replay(trace)

        paced = PolicyBridge(scenario.config)
        decisions = []
        for spec in trace:
            # Advance in three unequal hops before each submit, the way
            # the gateway's pacer trails the wall clock.
            gap = spec.time - paced.now
            for fraction in (0.31, 0.62, 0.997):
                paced.advance(paced.now + gap * fraction)
                gap = spec.time - paced.now
            decisions.append(paced.submit(spec.time, spec.video_id))
        assert decisions_digest(reference) == decisions_digest(decisions)

    def test_submit_behind_clock_raises_parity_error(self, scenario):
        bridge = PolicyBridge(scenario.config)
        bridge.advance(10.0)
        with pytest.raises(ParityError, match="behind the policy"):
            bridge.submit(9.0, 0)

    def test_builtin_arrivals_are_stopped(self, scenario):
        """Only submitted arrivals may reach the controller — the
        scenario's own Poisson process must not race the live feed."""
        bridge = PolicyBridge(scenario.config)
        bridge.advance(scenario.config.duration)
        assert bridge.controller.metrics.arrivals == 0

    def test_decision_shape_and_outcomes(self, scenario):
        trace = arrival_trace(scenario.config)
        decisions = PolicyBridge(scenario.config).replay(trace)
        outcomes = {d.outcome for d in decisions}
        # The committed scenario is overdriven on purpose: all three
        # decision classes must appear for the parity test to bite.
        assert "accepted" in outcomes
        assert "rejected" in outcomes
        assert "accepted_with_migration" in outcomes
        for decision in decisions:
            wire = decision.to_wire()
            assert wire == json.loads(json.dumps(wire))
            assert (decision.server is not None) == decision.accepted

    def test_finalize_summary(self, scenario):
        bridge = PolicyBridge(scenario.config)
        bridge.replay(arrival_trace(scenario.config, max_sessions=10))
        summary = bridge.finalize(time=scenario.config.duration * 3)
        assert summary["arrivals"] == 10
        assert summary["decisions"] == 10
        assert summary["accepted"] + summary["rejected"] == 10
        assert summary["decisions_sha"]


# ----------------------------------------------------------------------
# Gateway + load generator, end to end on loopback — through the live
# leg `repro verify` runs (repro.serve.chaos.run_chaos_serve)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def full_run(scenario, tmp_path_factory):
    """The whole committed scenario served once."""
    return run(run_chaos_serve(
        scenario.config,
        postmortem=tmp_path_factory.mktemp("full") / "postmortem.jsonl",
    ))


@pytest.fixture(scope="module")
def short_run(scenario, tmp_path_factory):
    """Five sessions served once: ``(report, gateway)``."""
    seen = []

    async def keep(gateway):
        seen.append(gateway)

    report = run(run_chaos_serve(
        scenario.config, max_sessions=5, probe=keep,
        postmortem=tmp_path_factory.mktemp("short") / "postmortem.jsonl",
    ))
    return report, seen[0]


class TestLoopbackEndToEnd:
    def test_full_scenario_parity_and_zero_underruns(self, scenario, full_run):
        """The acceptance loop: the committed scenario, 3 servers,
        dozens of concurrent live sessions, decisions byte-identical
        to the virtual-time run, zero client underruns, no leaks."""
        trace = arrival_trace(scenario.config)
        load, summary = full_run["load"], full_run["summary"]

        assert load["sessions"] == len(trace) >= 20
        assert load["errors"] == 0
        assert load["underruns"] == 0
        assert load["peak_concurrency"] >= 20
        assert load["accepted"] > 0 and load["rejected"] > 0

        # Parity: live decisions == virtual-time replay, byte for byte.
        reference = PolicyBridge(scenario.config).replay(trace)
        assert json.dumps(summary["decisions"], separators=(",", ":")) == (
            decisions_digest(reference)
        )
        assert full_run["parity_clamps"] == 0
        assert summary["serve"]["sessions_active"] == 0
        assert summary["policy"]["migrations"] > 0

        # Per-session consistency: what each client got matches its
        # admitted video's size (every accepted stream ran to the end).
        for outcome in load["outcomes"]:
            if outcome["outcome"].startswith("accepted"):
                assert outcome["reason"] == "finished"
                assert outcome["delivered_mb"] == pytest.approx(
                    outcome["size_mb"], abs=2e-6
                )
                assert outcome["payload_bytes"] > 0
            else:
                assert outcome["outcome"] == "rejected"

        # A fault-free scenario arms no chaos plane.
        assert full_run["chaos"]["armed"] is False
        assert full_run["reconciliation"]["affected"] == 0
        assert full_run["invariant_violation"] is None
        # Nothing still running in the loop after gateway.stop().
        assert full_run["leaked_tasks"] == []

    def test_live_migrations_are_observed_by_clients(self, full_run):
        decisions = full_run["summary"]["decisions"]
        assert any(d["migrations"] for d in decisions), (
            "scenario must exercise DRM"
        )
        # A migration-assisted admit relocates *existing* streams; at
        # least one client must have seen its server handoff mid-stream.
        assert sum(
            o["migrations"] for o in full_run["load"]["outcomes"]
        ) > 0

    def test_summary_is_provenance_stamped_json(self, scenario, short_run):
        encoded = json.loads(json.dumps(short_run[0]["summary"]))
        assert encoded["provenance"]["config_hash"]
        assert encoded["provenance"]["mode"] == "serve"
        assert encoded["provenance"]["seed"] == scenario.config.seed
        assert len(encoded["decisions"]) == 5

    def test_metrics_registry_carries_serve_gauges(self, short_run):
        snap = short_run[1].registry.snapshot()
        assert snap["gauges"]["serve.sessions.active"] == 0
        assert snap["counters"]["serve.admits"] >= 1
        assert snap["counters"]["serve.chunks"] >= 1

    def test_session_trace_records_emitted(self, short_run):
        from repro import obs

        tracer = short_run[1].tracer
        opens = list(tracer.records_of(obs.TraceKind.SESSION_OPEN))
        closes = list(tracer.records_of(obs.TraceKind.SESSION_CLOSE))
        assert len(opens) == len(closes) >= 1
        for record in closes:
            assert record.fields["reason"] == "finished"


class TestDrain:
    def test_drain_rejects_new_arrivals_and_closes_clean(self, scenario):
        async def scenario_run():
            gateway = ClusterGateway(scenario.config, ServeConfig(port=0))
            await gateway.start()

            # One admitted, active stream.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            await write_frame(
                writer, {"type": "request", "video": 0, "t": 0.0}
            )
            admit = await read_frame(reader, timeout=10.0)
            assert admit.type == "admit"

            gateway.begin_drain()

            # A later client must be turned away without a decision.
            r2, w2 = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            await write_frame(w2, {"type": "request", "video": 1, "t": 5.0})
            reject = await read_frame(r2, timeout=10.0)
            assert reject.type == "reject"
            assert reject.header["reason"] == "draining"
            w2.close()

            summary = await gateway.stop()
            # Drain the admitted stream's frames; it must end cleanly.
            last = None
            while True:
                frame = await read_frame(reader, timeout=5.0)
                if frame is None:
                    break
                last = frame
            writer.close()
            return gateway, summary, last

        gateway, summary, last = run(scenario_run())
        assert last is not None and last.type == "end"
        assert last.header["reason"] in ("finished", "drained")
        assert summary["serve"]["drain_rejects"] == 1
        assert summary["serve"]["sessions_active"] == 0
        # The drained-away arrival never reached the policy core.
        assert summary["policy"]["decisions"] == 1

    def test_sigterm_subprocess_drains_and_exits_zero(self, scenario):
        """SIGTERM during active streams: graceful drain, exit code 0,
        provenance-stamped summary on stdout."""
        env = {"PYTHONPATH": str(REPO / "src")}
        serve_proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--scenario", str(SCENARIO_PATH), "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(REPO),
        )
        try:
            banner = serve_proc.stderr.readline()
            port = int(re.search(r":(\d+) ", banner).group(1))
            loadgen = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "loadgen",
                    "--scenario", str(SCENARIO_PATH),
                    "--port", str(port), "--max-sessions", "20",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, cwd=str(REPO),
            )
            # Let some streams become active, then SIGTERM mid-flight.
            import time as _time

            _time.sleep(1.5)
            serve_proc.send_signal(signal.SIGTERM)
            out, err = serve_proc.communicate(timeout=60)
            lg_out, _ = loadgen.communicate(timeout=60)
        finally:
            for proc in (serve_proc, loadgen):
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.kill()

        assert serve_proc.returncode == 0, err[-2000:]
        summary = json.loads(out)
        assert summary["provenance"]["mode"] == "serve"
        assert summary["serve"]["sessions_active"] == 0
        assert summary["policy"]["decisions"] >= 1

        report = json.loads(lg_out)
        assert report["errors"] == 0
        assert report["underruns"] == 0
        # Force-drained sessions surface as such, not as errors.
        reasons = {
            s["reason"] for s in report["outcomes"] if s["outcome"] != "rejected"
        }
        assert reasons <= {"finished", "drained", "disconnected"}


# ----------------------------------------------------------------------
# The send path: no Task per frame, final chunk + end in one write
# ----------------------------------------------------------------------
class _RecordingWriter:
    """Pass-through transport wrapper that keeps every ``write``."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


async def _one_session(config, serve, wrap_writer=None):
    """Serve one raw client to its ``end`` frame on an idle gateway.

    Returns the client's frames, the gateway-side session object and
    the coroutine of every asyncio Task created while it streamed.  The
    client reads without a per-frame timeout (on Python 3.10 that would
    be a Task of its own); the whole session is bounded instead.
    """
    return await asyncio.wait_for(
        _serve_one(config, serve, wrap_writer), timeout=30.0
    )


async def _serve_one(config, serve, wrap_writer):
    gateway = ClusterGateway(config, serve, wrap_writer=wrap_writer)
    await gateway.start()
    await asyncio.sleep(0)  # the supervisor's loops exist from here on
    loop = asyncio.get_running_loop()
    created = []

    def factory(loop, coro, **kwargs):
        task = asyncio.Task(coro, loop=loop, **kwargs)
        created.append(getattr(coro, "__qualname__", repr(coro)))
        return task

    loop.set_task_factory(factory)
    try:
        reader, writer = await asyncio.open_connection(
            serve.host, gateway.port
        )
        await write_frame(writer, {"type": "request", "video": 0, "t": 0.0})
        frames = [await read_frame(reader)]
        (session,) = gateway.sessions.values()
        while frames[-1] is not None:
            frames.append(await read_frame(reader))
        writer.close()
        await writer.wait_closed()
        tasks = list(created)
    finally:
        loop.set_task_factory(None)
        await gateway.stop()
    return frames[:-1], session, tasks


class TestSendPath:
    def test_tasks_per_session_do_not_grow_with_chunks(self, scenario):
        """Structural form of the perf claim: an uncongested session
        costs the gateway its connection-handler Task and nothing per
        frame, however many chunks it is cut into."""

        def serve_at(tick):
            frames, _, tasks = run(_one_session(
                scenario.config,
                ServeConfig(port=0, ops_port=None, compression=200.0,
                            tick=tick),
            ))
            assert frames[0].type == "admit"
            assert frames[-1].type == "end"
            return sum(f.type == "chunk" for f in frames), tasks

        few, tasks_few = serve_at(0.05)
        many, tasks_many = serve_at(0.0125)
        assert many >= 2 * few > 0
        # The accept and the handler it starts; nothing per frame.
        assert tasks_few == tasks_many
        assert tasks_few[-1] == "ClusterGateway._handle_connection"
        assert len(tasks_few) <= 2

    def test_final_chunk_and_end_share_one_write(self, scenario):
        writers = []

        def record(writer):
            writers.append(_RecordingWriter(writer))
            return writers[-1]

        frames, session, _ = run(_one_session(
            scenario.config,
            ServeConfig(port=0, ops_port=None, compression=200.0),
            wrap_writer=record,
        ))
        chunks = [f for f in frames if f.type == "chunk"]
        end = frames[-1]
        assert [f.type for f in frames] == (
            ["admit"] + ["chunk"] * len(chunks) + ["end"]
        )
        # One write per frame, except the last two frames share theirs.
        (writer,) = writers
        assert len(writer.writes) == len(frames) - 1

        async def split(data):
            reader = await feed_reader(data)
            return [await read_frame(reader), await read_frame(reader),
                    await read_frame(reader)]

        last_chunk, last_end, eof = run(split(writer.writes[-1]))
        assert eof is None
        assert last_chunk == chunks[-1] and last_end == end
        # The end frame says what a separate one would have said.
        assert end.header["reason"] == "finished"
        assert [f.header["seq"] for f in chunks] == list(range(len(chunks)))
        assert end.header["chunks"] == session.chunks == len(chunks)
        assert end.header["delivered_mb"] == round(session.delivered_mb, 9)
        assert end.header["delivered_mb"] == pytest.approx(
            frames[0].header["size_mb"]
        )
        assert end.header["t"] == round(session.request.finish_time, 9)


# ----------------------------------------------------------------------
# Client-side underrun accounting (scripted gateway)
# ----------------------------------------------------------------------
class TestClientAccounting:
    def test_client_counts_underruns_against_virtual_schedule(self):
        """A gateway that falls behind the view bandwidth must be
        caught by the client's staging-buffer model."""
        from repro.serve.loadgen import _LiveClient

        async def scenario_run():
            async def slacker_gateway(reader, writer):
                await read_frame(reader)
                await write_frame(writer, {
                    "type": "admit", "t": 0.0, "request": 0, "video": 0,
                    "server": 0, "size_mb": 30.0, "view_mb_s": 3.0,
                })
                # 10 virtual seconds of playback but only 12 Mb of the
                # 30 Mb needed: 18 Mb short => underrun at the client.
                await write_frame(
                    writer, {"type": "chunk", "t": 0.0, "server": 0,
                             "mb": 6.0, "seq": 0}, b"\x00" * 8)
                await write_frame(
                    writer, {"type": "chunk", "t": 10.0, "server": 0,
                             "mb": 6.0, "seq": 1}, b"\x00" * 8)
                await write_frame(
                    writer, {"type": "end", "reason": "finished",
                             "delivered_mb": 12.0, "chunks": 2})
                writer.close()

            server = await asyncio.start_server(
                slacker_gateway, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            serve = ServeConfig(port=port)
            outcome = await _LiveClient(
                serve, 0, RequestSpec(0.0, 0)
            ).run()
            server.close()
            await server.wait_closed()
            return outcome

        outcome = run(scenario_run())
        assert outcome.accepted
        assert outcome.underruns == 1
        assert outcome.delivered_mb == pytest.approx(12.0)

    def test_client_reports_rejection(self, scenario):
        async def scenario_run():
            gateway = ClusterGateway(scenario.config, ServeConfig(port=0))
            await gateway.start()
            gateway.begin_drain()
            report = await LoadGenerator(
                ServeConfig(port=gateway.port),
                arrival_trace(scenario.config, max_sessions=3),
            ).run()
            await gateway.stop()
            return report

        report = run(scenario_run())
        assert all(s.outcome == "rejected" for s in report.sessions)
        assert all(s.reason == "draining" for s in report.sessions)


# ----------------------------------------------------------------------
# Compression invariance (the decisions cannot depend on wall speed)
# ----------------------------------------------------------------------
class TestCompressionInvariance:
    def test_decisions_identical_across_compression_factors(self, scenario):
        config = dataclasses.replace(scenario.config)
        trace = arrival_trace(config, max_sessions=25)

        async def run_at(compression):
            gateway = ClusterGateway(
                config, ServeConfig(port=0, compression=compression)
            )
            await gateway.start()
            await LoadGenerator(
                ServeConfig(port=gateway.port, compression=compression),
                trace,
            ).run()
            summary = await gateway.stop()
            assert summary["serve"]["parity_clamps"] == 0
            return decisions_digest(gateway.bridge.decisions)

        fast = run(run_at(120.0))
        slow = run(run_at(60.0))
        assert fast == slow == decisions_digest(
            PolicyBridge(config).replay(trace)
        )
