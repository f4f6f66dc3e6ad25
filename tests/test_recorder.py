"""Tests for the flight recorder (repro.obs.recorder).

The three trigger paths — operator SIGUSR2 (including against a live
gateway subprocess), invariant violation inside the gateway's policy
loop, and an unhandled crash — plus the dump artifact itself: ring
bounding, provenance stamping, and overwrite semantics.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time as _time
from pathlib import Path

import pytest

from repro import obs
from repro.faults.invariants import InvariantViolation
from repro.scenario import load_scenario
from repro.serve import ClusterGateway, ServeConfig, write_frame

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "scenarios" / "serve_loopback.json"


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(SCENARIO_PATH)


def _violation(detail="test"):
    return InvariantViolation(
        "monotonic_clock", "policy", detail, 1.0, [(0.5, "request.arrive")]
    )


def _fill(tracer, n):
    for i in range(n):
        tracer.emit(obs.TraceKind.REQUEST_ARRIVE, float(i), request=i)


# ----------------------------------------------------------------------
# The dump artifact
# ----------------------------------------------------------------------
class TestDump:
    def test_dump_carries_provenance_and_ring(self, tmp_path):
        tracer = obs.Tracer()
        _fill(tracer, 4)
        rec = obs.FlightRecorder(
            tracer, tmp_path / "pm.jsonl",
            provenance={"seed": 11, "mode": "test"},
            state=lambda: {"sessions": 3},
        )
        path = rec.dump("signal", detail="SIGUSR2")

        pm = obs.read_postmortem(path)
        meta = pm["meta"]
        assert meta["kind"] == "postmortem.meta"
        assert meta["reason"] == "signal"
        assert meta["detail"] == "SIGUSR2"
        assert meta["pid"] == os.getpid()
        assert meta["dump_seq"] == 1
        assert meta["provenance"] == {"seed": 11, "mode": "test"}
        assert meta["state"] == {"sessions": 3}
        assert meta["state_error"] is None
        assert meta["wall_utc"].endswith("+00:00")
        assert meta["records"] == meta["emitted"] == 4
        assert [r["request"] for r in pm["records"]] == [0, 1, 2, 3]

    def test_ring_bounding_dumps_newest_window_only(self, tmp_path):
        tracer = obs.Tracer(capacity=5)
        _fill(tracer, 20)
        rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
        pm = obs.read_postmortem(rec.dump("crash"))
        assert pm["meta"]["records"] == 5
        assert pm["meta"]["emitted"] == 20
        assert pm["meta"]["dropped"] == 15
        assert [r["request"] for r in pm["records"]] == [15, 16, 17, 18, 19]

    def test_repeat_dumps_overwrite_with_sequence(self, tmp_path):
        tracer = obs.Tracer()
        _fill(tracer, 1)
        rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
        rec.dump("signal")
        _fill(tracer, 2)
        pm = obs.read_postmortem(rec.dump("signal"))
        assert pm["meta"]["dump_seq"] == 2
        assert len(pm["records"]) == 3          # newest window, one file

    def test_failing_state_supplier_is_recorded_not_raised(self, tmp_path):
        tracer = obs.Tracer()
        _fill(tracer, 1)

        def bad_state():
            raise RuntimeError("snapshot exploded")

        rec = obs.FlightRecorder(
            tracer, tmp_path / "pm.jsonl", state=bad_state
        )
        pm = obs.read_postmortem(rec.dump("crash"))
        assert pm["meta"]["state"] is None
        assert "snapshot exploded" in pm["meta"]["state_error"]

    def test_read_postmortem_rejects_non_dump(self, tmp_path):
        path = tmp_path / "not_pm.jsonl"
        path.write_text('{"t": 0.0, "kind": "request.arrive"}\n')
        with pytest.raises(ValueError, match="not a postmortem dump"):
            obs.read_postmortem(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty postmortem"):
            obs.read_postmortem(empty)


# ----------------------------------------------------------------------
# Trigger paths
# ----------------------------------------------------------------------
class TestTriggers:
    def test_guard_dumps_on_invariant_violation_and_reraises(self, tmp_path):
        tracer = obs.Tracer()
        _fill(tracer, 2)
        rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
        with pytest.raises(InvariantViolation):
            with rec.guard("policy_loop"):
                raise _violation("clock went backwards")
        pm = obs.read_postmortem(rec.path)
        assert pm["meta"]["reason"] == "invariant_violation"
        assert "policy_loop" in pm["meta"]["detail"]
        assert "clock went backwards" in pm["meta"]["detail"]

    def test_guard_dumps_on_crash_and_reraises(self, tmp_path):
        tracer = obs.Tracer()
        rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
        with pytest.raises(ZeroDivisionError):
            with rec.guard("server_loop.2"):
                1 / 0
        pm = obs.read_postmortem(rec.path)
        assert pm["meta"]["reason"] == "crash"
        assert "server_loop.2: ZeroDivisionError" in pm["meta"]["detail"]

    def test_guard_does_not_swallow_cancellation(self, tmp_path):
        """CancelledError is BaseException: a cancelled gateway task is
        normal shutdown, not a disaster worth a postmortem."""
        tracer = obs.Tracer()
        rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
        with pytest.raises(asyncio.CancelledError):
            with rec.guard("drain"):
                raise asyncio.CancelledError()
        assert rec.dumps == 0
        assert not rec.path.exists()

    def test_signal_handler_in_process(self, tmp_path):
        tracer = obs.Tracer()
        _fill(tracer, 3)
        rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
        assert rec.install_signal_handler() is True
        try:
            os.kill(os.getpid(), signal.SIGUSR2)
            deadline = _time.time() + 5.0
            while rec.dumps == 0 and _time.time() < deadline:
                _time.sleep(0.01)
        finally:
            rec.uninstall_signal_handler()
        pm = obs.read_postmortem(rec.path)
        assert pm["meta"]["reason"] == "signal"
        assert pm["meta"]["detail"] == "SIGUSR2"
        assert len(pm["records"]) == 3

    def test_uninstall_is_idempotent(self, tmp_path):
        rec = obs.FlightRecorder(obs.Tracer(), tmp_path / "pm.jsonl")
        rec.uninstall_signal_handler()          # never installed: no-op
        assert rec.install_signal_handler() is True
        rec.uninstall_signal_handler()
        rec.uninstall_signal_handler()


# ----------------------------------------------------------------------
# The gateway's supervised loops
# ----------------------------------------------------------------------
class TestGatewayIntegration:
    def test_invariant_violation_in_policy_loop_dumps(
        self, scenario, tmp_path
    ):
        """An InvariantViolation escaping bridge.advance writes a
        postmortem before killing the policy task, and still
        propagates out of gateway.stop()."""

        async def scenario_run():
            tracer = obs.Tracer()
            rec = obs.FlightRecorder(
                tracer, tmp_path / "pm.jsonl",
                provenance={"mode": "serve"},
            )
            gateway = ClusterGateway(
                scenario.config, ServeConfig(port=0, ops_port=None),
                tracer=tracer, recorder=rec,
            )
            await gateway.start()

            def poisoned_advance(vt):
                raise _violation("advance poisoned")

            gateway.bridge.advance = poisoned_advance
            _, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            await write_frame(
                writer, {"type": "request", "video": 0, "t": 0.0}
            )
            deadline = asyncio.get_running_loop().time() + 10.0
            while rec.dumps == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            writer.close()
            with pytest.raises(InvariantViolation):
                await gateway.stop()
            return rec

        rec = run_loop(scenario_run())
        pm = obs.read_postmortem(rec.path)
        assert pm["meta"]["reason"] == "invariant_violation"
        assert "policy_loop" in pm["meta"]["detail"]
        assert pm["meta"]["provenance"] == {"mode": "serve"}
        # The window contains the doomed arrival's trace records.
        kinds = {r["kind"] for r in pm["records"]}
        assert "session.span" in kinds

    def test_clean_run_never_dumps(self, scenario, tmp_path):
        async def scenario_run():
            tracer = obs.Tracer()
            rec = obs.FlightRecorder(tracer, tmp_path / "pm.jsonl")
            gateway = ClusterGateway(
                scenario.config, ServeConfig(port=0, ops_port=None),
                tracer=tracer, recorder=rec,
            )
            await gateway.start()
            await gateway.stop()
            return rec

        rec = run_loop(scenario_run())
        assert rec.dumps == 0
        assert not rec.path.exists()


def run_loop(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# SIGUSR2 against a live `repro serve` subprocess
# ----------------------------------------------------------------------
class TestSigusr2Subprocess:
    def test_live_gateway_dumps_on_sigusr2(self, scenario, tmp_path):
        """The operator path end to end: a serving process, streams in
        flight, SIGUSR2 → provenance-stamped postmortem on disk, and
        the run continues to a clean SIGTERM exit."""
        pm_path = tmp_path / "postmortem.jsonl"
        env = {"PYTHONPATH": str(REPO / "src")}
        serve_proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--scenario", str(SCENARIO_PATH), "--port", "0",
                "--postmortem", str(pm_path),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(REPO),
        )
        loadgen = None
        try:
            banner = serve_proc.stderr.readline()
            assert "SIGUSR2" in banner
            port = int(re.search(r":(\d+) ", banner).group(1))
            loadgen = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "loadgen",
                    "--scenario", str(SCENARIO_PATH),
                    "--port", str(port), "--max-sessions", "20",
                    "--quiet",
                ],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, cwd=str(REPO),
            )
            _time.sleep(1.5)                   # streams become active
            serve_proc.send_signal(signal.SIGUSR2)
            deadline = _time.time() + 10.0
            while not pm_path.exists() and _time.time() < deadline:
                _time.sleep(0.05)
            assert pm_path.exists(), "SIGUSR2 produced no postmortem"

            serve_proc.send_signal(signal.SIGTERM)
            out, err = serve_proc.communicate(timeout=60)
            lg_out, _ = loadgen.communicate(timeout=60)
        finally:
            for proc in (serve_proc, loadgen):
                if proc is not None and proc.poll() is None:
                    proc.kill()               # pragma: no cover - cleanup

        assert serve_proc.returncode == 0, err[-2000:]

        pm = obs.read_postmortem(pm_path)
        meta = pm["meta"]
        assert meta["reason"] == "signal"
        assert meta["detail"] == "SIGUSR2"
        assert meta["provenance"]["mode"] == "serve"
        assert meta["provenance"]["scenario"] == scenario.name
        assert meta["provenance"]["seed"] == scenario.config.seed
        assert meta["pid"] == serve_proc.pid
        # Captured mid-flight: the window holds live session records,
        # and the dump-time state snapshot saw active sessions.
        kinds = {r["kind"] for r in pm["records"]}
        assert "session.open" in kinds
        assert meta["state"]["gauges"]["serve.sessions.active"] >= 1

        # The dump did not disturb the run: the summary on stdout is
        # intact and the load generator finished clean.
        summary = json.loads(out)
        assert summary["serve"]["sessions_active"] == 0
        report = json.loads(lg_out)
        assert report["errors"] == 0
