"""Tests for the live telemetry plane (repro.serve.ops / repro.serve.top).

The acceptance loop: a live gateway answers ops frames — stats, health,
sessions, and the Prometheus text exposition — *while* streaming ≥ 20
concurrent sessions, and attaching the whole telemetry plane leaves the
policy decisions byte-identical to a virtual-time replay (the parity
contract).  ``repro top`` renders from both sources: the live endpoint
and a recorded JSONL trace.
"""

from __future__ import annotations

import asyncio
import functools
import io
import json
import socket
from pathlib import Path

import pytest

from conftest import run
from repro import obs
from repro.scenario import load_scenario
from repro.serve import (
    ClusterGateway,
    LoadGenerator,
    PolicyBridge,
    ServeConfig,
    ops_query,
    render_top,
    run_chaos_serve,
    run_live,
    run_trace,
    trace_samples,
)
from repro.serve.bridge import decisions_digest
from repro.serve.loadgen import arrival_trace
from repro.serve.ops import format_reply, ops_query_sync
from repro.serve.telemetry import SERVER_COLUMNS, snapshot

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "scenarios" / "serve_loopback.json"

#: The snapshot (and the one a second before it, for the rates) whose
#: ``render_top`` frame docs/SERVING.md shows.
DOC_SNAPSHOT = {
    "status": "serving", "virtual_now": 497.2, "uptime_s": 12.4,
    "admits": 25, "rejects": 0, "sessions_active": 25,
    "chunks": 1042, "chunk_megabits": 3100.0,
    "vt_lag_s": 10.0, "guard_occupancy": 1.0,
    "latency_ms": {"p50": 250.0, "p95": 281.0, "p99": 296.4},
    "membership": {"epoch": 0, "counts": {"active": 3}},
    "servers": {
        "0": {"sessions": 9, "scheduled_mb_s": 90.0, "bucket_mb": 0.41,
              "state": "active"},
        "1": {"sessions": 8, "scheduled_mb_s": 80.0, "bucket_mb": 0.38,
              "state": "active"},
        "2": {"sessions": 8, "scheduled_mb_s": 80.0, "bucket_mb": 0.35,
              "state": "active"},
    },
}
DOC_PREVIOUS = dict(
    DOC_SNAPSHOT, uptime_s=11.4, admits=23, chunks=958, chunk_megabits=2850.0
)


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(SCENARIO_PATH)


async def _wait_for_active(gateway, host, port, minimum):
    """Poll health until *minimum* sessions stream; fail once the
    policy clock has passed the scenario's horizon without them."""
    while True:
        reply = await ops_query(host, port, "health")
        if reply["health"]["sessions_active"] >= minimum:
            return reply["health"]
        assert gateway.bridge.now < gateway.config.duration, (
            f"never reached {minimum} concurrent sessions"
        )
        await asyncio.sleep(0.05)


# ----------------------------------------------------------------------
# The ops endpoint, live, mid-run
# ----------------------------------------------------------------------
class TestOpsEndpointLive:
    def test_all_verbs_mid_run_and_parity_preserved(self, scenario, tmp_path):
        """The tentpole acceptance: every ops verb answers while ≥ 20
        sessions stream, the Prometheus export parses, and the
        telemetry plane does not perturb a single policy decision."""

        seen = {}

        async def scrape(gateway):
            host, port = gateway.serve.host, gateway.ops_port
            seen["gateway"] = gateway
            seen["health"] = await _wait_for_active(gateway, host, port, 20)
            seen["stats"] = await ops_query(host, port, "stats")
            seen["sessions"] = await ops_query(
                host, port, "sessions", recent=10
            )
            seen["prom"] = await ops_query(host, port, "prometheus")

        report = run(run_chaos_serve(
            scenario.config,
            serve=ServeConfig(port=0, ops_port=0),
            probe=scrape,
            postmortem=tmp_path / "postmortem.jsonl",
        ))
        gateway, health, stats = seen["gateway"], seen["health"], seen["stats"]
        sessions, prom, tracer = seen["sessions"], seen["prom"], gateway.tracer

        # -- health: the pacing gauges of a serving gateway ------------
        assert health["status"] == "serving"
        assert health["sessions_active"] >= 20
        assert health["anchored"] is True
        assert health["admits"] >= 20
        assert health["vt_lag_s"] >= 0.0
        assert 0.0 <= health["guard_occupancy"] < 10.0
        assert set(health["servers"]) == {
            str(s) for s in gateway.bridge.controller.servers
        }
        assert sum(
            row["sessions"] for row in health["servers"].values()
        ) == health["sessions_active"]

        # -- stats: the atomic metrics snapshot ------------------------
        snap = stats["stats"]["metrics"]
        assert snap["counters"]["serve.admits"] >= 20
        assert snap["gauges"]["serve.vt_lag_s"] >= 0.0
        assert "serve.chunk_latency_ms" in snap["histograms"]
        assert stats["stats"]["uptime_s"] > 0.0

        # -- sessions: live rows + recent spans ------------------------
        rows = sessions["sessions"]["active"]
        assert len(rows) >= 20
        for row in rows[:5]:
            assert row["phase"] in ("admit", "pacing", "handoff")
            assert row["server"] in gateway.bridge.controller.servers
            assert row["delivered_mb"] >= 0.0
        assert sessions["sessions"]["spans_recorded"] > 0

        # -- prometheus: a parseable exposition ------------------------
        samples = obs.parse_prometheus(prom["text"])
        assert samples["repro_serve_admits_total"] >= 20
        assert samples['repro_serve_chunk_latency_ms_bucket{le="+Inf"}'] == (
            samples["repro_serve_chunk_latency_ms_count"]
        )

        # -- parity: telemetry did not change one decision -------------
        load = report["load"]
        assert load["errors"] == 0 and load["underruns"] == 0
        reference = PolicyBridge(scenario.config)
        assert decisions_digest(gateway.bridge.decisions) == (
            decisions_digest(reference.replay(arrival_trace(reference)))
        )
        assert report["parity_clamps"] == 0

        # -- stats sampler fed the trace; nothing leaked ---------------
        assert tracer.counts.get(obs.TraceKind.SERVE_STATS, 0) >= 1
        assert tracer.counts.get(obs.TraceKind.SESSION_SPAN, 0) > 0
        assert report["leaked_tasks"] == []

    def test_unknown_verb_answers_ops_error(self, scenario):
        async def scenario_run():
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve)
            await gateway.start()
            try:
                with pytest.raises(ValueError, match="unknown verb"):
                    await ops_query(serve.host, gateway.ops_port, "dance")
                with pytest.raises(ValueError, match="expected 'ops'"):
                    from repro.serve.protocol import read_frame, write_frame

                    reader, writer = await asyncio.open_connection(
                        serve.host, gateway.ops_port
                    )
                    await write_frame(writer, {"type": "chunk"})
                    frame = await read_frame(reader)
                    writer.close()
                    assert frame.type == "ops.error"
                    raise ValueError(frame.header["reason"])
            finally:
                await gateway.stop()

        run(scenario_run())

    def test_ops_disabled_by_config(self, scenario):
        async def scenario_run():
            gateway = ClusterGateway(
                scenario.config, ServeConfig(port=0, ops_port=None)
            )
            await gateway.start()
            try:
                assert gateway.ops is None
                with pytest.raises(AssertionError, match="disabled"):
                    gateway.ops_port
            finally:
                await gateway.stop()

        run(scenario_run())

    def test_health_on_idle_gateway(self, scenario):
        async def scenario_run():
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve)
            await gateway.start()
            try:
                return await ops_query(
                    serve.host, gateway.ops_port, "health"
                )
            finally:
                await gateway.stop()

        reply = run(scenario_run())
        health = reply["health"]
        assert health["status"] == "idle"        # nothing has arrived
        assert health["anchored"] is False
        assert health["sessions_active"] == 0
        assert health["vt_lag_s"] == 0.0

    def test_sync_client_and_format_reply(self, scenario):
        """ops_query_sync drives its own loop (the `repro ops` path):
        it runs on a worker thread here, exactly like a separate CLI
        process talking to a serving gateway."""

        async def main():
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve)
            await gateway.start()
            port = gateway.ops_port
            reply = await asyncio.get_running_loop().run_in_executor(
                None, lambda: ops_query_sync("127.0.0.1", port, "health")
            )
            await gateway.stop()
            return reply

        reply = run(main())
        assert reply["health"]["status"] == "idle"
        rendered = format_reply(reply)
        assert json.loads(rendered)["health"]["status"] == "idle"


# ----------------------------------------------------------------------
# repro top — rendering from both sources
# ----------------------------------------------------------------------
class TestTopDashboard:
    def _sample(self, **overrides):
        base = {
            "status": "serving", "virtual_now": 120.0, "uptime_s": 3.0,
            "admits": 40, "rejects": 2, "sessions_active": 25,
            "chunks": 400, "chunk_megabits": 900.0,
            "vt_lag_s": 10.0, "guard_occupancy": 1.0,
            "latency_ms": {"p50": 150.0, "p95": 200.0, "p99": 250.0},
            "membership": {"epoch": 2, "counts": {"active": 2}},
            "servers": {
                "0": {"sessions": 13, "scheduled_mb_s": 30.0,
                      "bucket_mb": 0.5, "state": "active"},
                "1": {"sessions": 12, "scheduled_mb_s": 28.0,
                      "bucket_mb": 0.25, "state": "active"},
            },
        }
        base.update(overrides)
        return base

    def test_render_shows_all_panels(self):
        frame = render_top(self._sample())
        assert "status=serving" in frame and "vt=120.00s" in frame
        assert "active    25" in frame
        assert "total 900.0 Mb" in frame
        assert "epoch    2   active 2" in frame
        assert "p50 150.0 ms" in frame and "p99 250.0 ms" in frame
        assert "guard [" in frame
        # Per-server table, one row per server.
        assert frame.count("30.00") == 1 and frame.count("28.00") == 1

    def test_serving_md_shows_what_render_top_prints(self):
        """The frame in docs/SERVING.md is generated, not drawn: the
        block after the marker is ``render_top`` of DOC_SNAPSHOT."""
        doc = (REPO / "docs" / "SERVING.md").read_text()
        marker = "<!-- render_top(tests/test_ops.py::DOC_SNAPSHOT) -->"
        assert marker in doc
        block = doc.split(marker, 1)[1].split("```text\n", 1)[1]
        shown = block.split("\n```", 1)[0]
        expected = render_top(DOC_SNAPSHOT, DOC_PREVIOUS, source="live")
        assert shown == expected, f"paste into SERVING.md:\n{expected}"

    def test_rates_need_two_samples(self):
        prev = self._sample(uptime_s=2.0, admits=30, chunks=300,
                            chunk_megabits=650.0)
        cold = render_top(self._sample())
        warm = render_top(self._sample(), prev)
        assert "(-)" in cold                  # no rate without history
        assert "(10.0/s)" in warm             # 10 admits over 1 s
        assert "250.0 Mb/s" in warm           # 250 Mb over 1 s

    def test_live_single_frame_into_pipe(self, scenario):
        async def scenario_run():
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve)
            await gateway.start()
            out = io.StringIO()
            try:
                rendered = await asyncio.get_running_loop().run_in_executor(
                    None,
                    lambda: run_live(
                        serve.host, gateway.ops_port, frames=1, out=out
                    ),
                )
            finally:
                await gateway.stop()
            return rendered, out.getvalue()

        rendered, text = run(scenario_run())
        assert rendered == 1
        assert "repro top [live]" in text
        assert "\x1b" not in text             # piped output: no ANSI

    def test_live_unreachable_is_one_actionable_line(self):
        with pytest.raises(SystemExit, match="repro serve"):
            run_live("127.0.0.1", 1, frames=1, out=io.StringIO())

    def test_trace_replay_renders_run(self, scenario, tmp_path):
        async def scenario_run():
            tracer = obs.Tracer()
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve, tracer=tracer)
            await gateway.start()
            trace = arrival_trace(gateway.bridge, max_sessions=10)
            await LoadGenerator(ServeConfig(port=gateway.port), trace).run()
            await gateway.stop()
            return tracer

        tracer = run(scenario_run())
        path = tmp_path / "run.jsonl"
        tracer.export_jsonl(path, provenance={"mode": "test"})

        samples = trace_samples(path)
        assert samples, "stats sampler must have fed the trace"
        for sample in samples:
            assert sample["status"] in ("serving", "draining")
            assert "admits" in sample and "servers" in sample

        out = io.StringIO()
        frames = run_trace(path, out=out)       # final state only
        assert frames == 1
        assert "repro top [trace]" in out.getvalue()

        out = io.StringIO()
        frames = run_trace(path, out=out, follow=True)
        assert frames == len(samples)

    def test_trace_without_stats_is_actionable(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"t": 0.0, "kind": "run.meta"}\n')
        with pytest.raises(SystemExit, match="no serve.stats samples"):
            trace_samples(path)

    def test_missing_trace_file_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            trace_samples(tmp_path / "nope.jsonl")

    def test_one_schema_for_health_and_serve_stats(self, scenario):
        """An ``ops health`` reply and a ``serve.stats`` record are the
        same snapshot: equal key sets on a live run, and taken from the
        same snapshot they render to the same frame but for the tag."""

        async def scenario_run():
            tracer = obs.Tracer()
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve, tracer=tracer)
            await gateway.start()
            trace = arrival_trace(gateway.bridge, max_sessions=10)
            loading = asyncio.ensure_future(
                LoadGenerator(ServeConfig(port=gateway.port), trace).run()
            )
            while not tracer.counts.get(obs.TraceKind.SERVE_STATS):
                await asyncio.sleep(0.05)
            reply = await ops_query(serve.host, gateway.ops_port, "health")
            stats = await ops_query(serve.host, gateway.ops_port, "stats")
            await loading
            await gateway.stop()
            return tracer, reply["health"], stats["stats"]

        tracer, health, stats = run(scenario_run())
        record = tracer.records_of(obs.TraceKind.SERVE_STATS)[0].to_dict()
        assert set(record) - {"t", "kind"} == set(health)
        assert set(stats) == set(health) | {"metrics"}
        assert record["t"] == pytest.approx(record["virtual_now"])
        live = render_top(health, source="live")
        assert live.replace("[live]", "[trace]") == render_top(
            dict(health, t=health["virtual_now"], kind="serve.stats"),
            source="trace",
        )

    def test_server_rows_sum_to_active_and_match_the_gauges(self, scenario):
        async def scenario_run():
            gateway = ClusterGateway(scenario.config, ServeConfig(port=0))
            await gateway.start()
            trace = arrival_trace(gateway.bridge, max_sessions=12)
            loading = asyncio.ensure_future(
                LoadGenerator(ServeConfig(port=gateway.port), trace).run()
            )
            while len(gateway.sessions) < 3 and not loading.done():
                await asyncio.sleep(0.02)
            # No await between the two reads: one point in time.
            snap, gauges = snapshot(gateway), gateway.registry.snapshot()["gauges"]
            await loading
            await gateway.stop()
            return snap, gauges

        snap, gauges = run(scenario_run())
        assert snap["sessions_active"] >= 3
        assert sum(
            row["sessions"] for row in snap["servers"].values()
        ) == snap["sessions_active"] == gauges["serve.sessions.active"]
        for sid, row in snap["servers"].items():
            for column in SERVER_COLUMNS:
                assert gauges[f"serve.server.{sid}.{column}"] == row[column]
            assert row["state"] == snap["membership"]["servers"][sid]

    def test_contract_counters_reach_prometheus(self, scenario):
        """``parity_clamps`` — the number the parity contract says stays
        zero — and ``handshake_errors`` are scrapeable, and a mute
        client moves the latter."""

        async def scenario_run():
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve)
            await gateway.start()
            before = await ops_query(serve.host, gateway.ops_port, "prometheus")
            reader, writer = await asyncio.open_connection(
                serve.host, gateway.port
            )
            # Mute: the gateway hangs up at the handshake bound.
            assert await reader.read() == b""
            after = await ops_query(serve.host, gateway.ops_port, "prometheus")
            health = await ops_query(serve.host, gateway.ops_port, "health")
            writer.close()
            await gateway.stop()
            return before["text"], after["text"], health["health"]

        before, after, health = run(scenario_run())
        before, after = obs.parse_prometheus(before), obs.parse_prometheus(after)
        assert before["repro_serve_parity_clamps_total"] == 0
        assert before["repro_serve_handshake_errors_total"] == 0
        assert after["repro_serve_handshake_errors_total"] == 1
        assert after["repro_serve_drain_rejects_total"] == 0
        assert health["handshake_errors"] == 1 and health["parity_clamps"] == 0


# ----------------------------------------------------------------------
# CLI: repro top / repro ops argument contracts
# ----------------------------------------------------------------------
class TestOpsCli:
    def test_top_requires_a_source(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="either --port"):
            main(["top"])

    def test_top_rejects_both_sources(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="exclusive"):
            main(["top", "--port", "1", "--trace", "x.jsonl"])

    def test_ops_requires_port(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--port PORT is required"):
            main(["ops", "health"])

    def test_top_from_trace_via_cli(self, scenario, tmp_path, capsys):
        from repro.cli import main

        async def scenario_run():
            tracer = obs.Tracer()
            serve = ServeConfig(port=0, ops_port=0)
            gateway = ClusterGateway(scenario.config, serve, tracer=tracer)
            await gateway.start()
            trace = arrival_trace(gateway.bridge, max_sessions=8)
            await LoadGenerator(ServeConfig(port=gateway.port), trace).run()
            await gateway.stop()
            return tracer

        tracer = run(scenario_run())
        path = tmp_path / "cli.jsonl"
        tracer.export_jsonl(path, provenance={"mode": "test"})

        assert main(["top", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro top [trace]" in out
        assert "server" in out

    def test_silent_endpoint_is_a_timeout(self, monkeypatch):
        """A listener that accepts and never answers is reported as a
        timeout by both verbs, not as an unreachable endpoint."""
        from repro.cli import main
        from repro.serve import top

        monkeypatch.setattr(
            top, "ops_query_sync", functools.partial(ops_query_sync, timeout=0.3)
        )
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen()  # the kernel completes the handshake
            port = str(silent.getsockname()[1])
            with pytest.raises(SystemExit, match="did not answer within 0.3s"):
                main(["ops", "--port", port, "--timeout", "0.3"])
            with pytest.raises(SystemExit, match="did not answer"):
                main(["top", "--port", port, "--frames", "1"])
