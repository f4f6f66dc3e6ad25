"""``repro serve`` / ``repro loadgen`` — the live serving runtime.

The CLI face of :mod:`repro.serve` (docs/SERVING.md).  Both
subcommands take a committed scenario file — the same JSON ``repro run
--scenario`` simulates — so a workload can be studied in virtual time
and then served live without re-specifying anything:

* ``repro serve --scenario scenarios/serve_loopback.json`` starts the
  gateway and streams until SIGTERM/SIGINT (or ``--max-wall``), then
  drains gracefully and prints a provenance-stamped summary as JSON;
* ``repro loadgen --scenario ... --port N`` replays the scenario's
  calibrated arrival process against a running gateway and prints a
  session-by-session report (exit code 1 on connection errors or
  client underruns, so smoke jobs can assert on it).

Registered as *bare* experiments: the wall-clock flags here replace
the virtual-time ``--scale`` machinery of the figure subcommands.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro import obs
from repro.experiments.registry import ExperimentSpec, Progress, register
from repro.scenario import Scenario, load_scenario_or_exit
from repro.serve.config import ServeConfig
from repro.serve.gateway import ClusterGateway
from repro.serve.loadgen import LoadGenerator, arrival_trace
from repro.simulation import Simulation


def _add_wall_flags(p: argparse.ArgumentParser, *, port_required: bool) -> None:
    # Not argparse-required: every registry-generated subcommand parses
    # bare (tested); the dispatchers check and exit with usage instead.
    p.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="scenario JSON file (the policy configuration; see scenarios/)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind/connect address")
    p.add_argument(
        "--port", type=int, default=None if port_required else 0,
        help="TCP port" + (" (required)" if port_required
                           else " (0 binds an ephemeral port)"),
    )
    p.add_argument(
        "--compression", type=float, default=40.0,
        help="virtual seconds per wall second (default 40)",
    )


def _serve_arguments(p: argparse.ArgumentParser) -> None:
    _add_wall_flags(p, port_required=False)
    p.add_argument(
        "--max-wall", type=float, default=None, metavar="SECONDS",
        help="stop (with a graceful drain) after this much wall clock; "
             "default: run until SIGTERM/SIGINT",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append structured trace records (JSONL) to PATH",
    )
    p.add_argument(
        "--ops-port", type=int, default=0, metavar="PORT",
        help="TCP port of the live telemetry (ops) endpoint; 0 binds an "
             "ephemeral port (printed in the banner), negative disables",
    )
    p.add_argument(
        "--postmortem", default="repro-postmortem.jsonl", metavar="PATH",
        help="flight-recorder dump file — written on SIGUSR2, invariant "
             "violation, or gateway crash (default %(default)s)",
    )


def _loadgen_arguments(p: argparse.ArgumentParser) -> None:
    _add_wall_flags(p, port_required=True)
    p.add_argument(
        "--duration", type=float, default=None, metavar="VSECONDS",
        help="virtual seconds of arrivals to replay "
             "(default: the scenario's duration)",
    )
    p.add_argument(
        "--max-sessions", type=int, default=None,
        help="hard cap on the number of sessions generated",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the periodic progress reports",
    )


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
async def _serve_async(
    scenario: Scenario, serve: ServeConfig, args: argparse.Namespace
) -> int:
    if args.trace_out:
        obs.check_trace_path(args.trace_out)
    # The tracer is always on: its ring is the flight recorder's data
    # source and the ops endpoint's span feed.  --trace-out only
    # controls whether the ring is exported at shutdown.
    tracer = obs.Tracer()
    gateway = ClusterGateway(scenario.config, serve, tracer=tracer)
    recorder = obs.FlightRecorder(
        tracer,
        args.postmortem,
        provenance=obs.run_provenance(
            seed=scenario.config.seed,
            config=scenario.config,
            extra={"mode": "serve", "scenario": scenario.name},
        ),
        state=gateway.registry.snapshot,
    )
    gateway.recorder = recorder
    await gateway.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    signals = (signal.SIGINT, signal.SIGTERM)
    for sig in signals:
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            signals = ()
            break
    recorder.install_signal_handler(loop=loop)
    ops_note = (
        f"ops on {serve.host}:{gateway.ops_port}"
        if gateway.ops is not None
        else "ops disabled"
    )
    print(
        f"serving scenario {scenario.name!r} on "
        f"{serve.host}:{gateway.port} "
        f"({ops_note}; compression {serve.compression:g}x; "
        f"{len(gateway.bridge.controller.servers)} servers) — "
        f"SIGTERM drains gracefully, SIGUSR2 dumps {args.postmortem}",
        file=sys.stderr,
        flush=True,
    )
    try:
        if args.max_wall is not None:
            await asyncio.wait_for(stop.wait(), args.max_wall)
        else:
            await stop.wait()
    except asyncio.TimeoutError:
        pass
    finally:
        for sig in signals:
            loop.remove_signal_handler(sig)
        recorder.uninstall_signal_handler()

    summary = await gateway.stop()
    if args.trace_out:
        tracer.export_jsonl(args.trace_out, provenance=summary["provenance"])
    print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_serve(args: argparse.Namespace, progress: Progress) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    try:
        serve = ServeConfig(
            host=args.host,
            port=args.port,
            compression=args.compression,
            ops_port=None if args.ops_port < 0 else args.ops_port,
        )
    except ValueError as exc:
        raise SystemExit(f"repro serve: {exc}") from None
    return asyncio.run(_serve_async(scenario, serve, args))


# ----------------------------------------------------------------------
# repro loadgen
# ----------------------------------------------------------------------
def _cmd_loadgen(args: argparse.Namespace, progress: Progress) -> int:
    scenario = load_scenario_or_exit(args.scenario)
    if args.port is None:
        raise SystemExit("repro loadgen: --port PORT is required "
                         "(the gateway's bound port)")
    try:
        serve = ServeConfig(
            host=args.host, port=args.port, compression=args.compression
        )
    except ValueError as exc:
        raise SystemExit(f"repro loadgen: {exc}") from None
    trace = arrival_trace(
        Simulation(scenario.config),
        duration=args.duration,
        max_sessions=args.max_sessions,
    )
    print(
        f"replaying {len(trace)} arrivals "
        f"({trace.duration:.1f} virtual s ≈ "
        f"{serve.to_wall(trace.duration):.1f} wall s) against "
        f"{serve.host}:{serve.port}",
        file=sys.stderr,
        flush=True,
    )
    progress = (
        None if args.quiet
        else lambda line: print(line, file=sys.stderr, flush=True)
    )
    report = asyncio.run(LoadGenerator(serve, trace, progress=progress).run())
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.errors == 0 and report.underruns == 0 else 1


register(
    ExperimentSpec(
        name="serve",
        help="serve a scenario live: asyncio TCP gateway driven by the "
             "EFTF/DRM policy core (docs/SERVING.md)",
        run_cli=_cmd_serve,
        add_arguments=_serve_arguments,
        order=400,
        bare=True,
    )
)

register(
    ExperimentSpec(
        name="loadgen",
        help="replay a scenario's arrival process against a live gateway "
             "and report per-session outcomes",
        run_cli=_cmd_loadgen,
        add_arguments=_loadgen_arguments,
        order=401,
        bare=True,
    )
)
