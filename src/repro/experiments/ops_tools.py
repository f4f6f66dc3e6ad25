"""``repro top`` / ``repro ops`` — live telemetry tooling.

The operator face of the telemetry plane (docs/OBSERVABILITY.md):

* ``repro ops --port N [verb]`` asks a running gateway's ops endpoint
  one question — ``health`` (default), ``stats``, ``sessions``,
  ``prometheus`` or ``chaos`` — and prints the reply (JSON, or the raw
  Prometheus text exposition), so shell pipelines and CI probes need no
  client code;
* ``repro top --port N`` renders the curses-free dashboard off the
  same endpoint, redrawing every ``--interval`` seconds; ``repro top
  --trace FILE`` replays a recorded trace's ``serve.stats`` samples
  instead, no server required.

Both are *bare* experiments: wall-clock tools, no scale machinery.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import ExperimentSpec, Progress, register
from repro.serve.ops import OPS_VERBS, format_reply, ops_query_sync
from repro.serve.top import run_live, run_trace


# ----------------------------------------------------------------------
# repro ops
# ----------------------------------------------------------------------
def _ops_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "verb", nargs="?", default="health", choices=OPS_VERBS,
        help="question to ask (default %(default)s)",
    )
    p.add_argument("--host", default="127.0.0.1", help="gateway address")
    p.add_argument(
        "--port", type=int, default=None,
        help="the gateway's ops port (printed in its startup banner)",
    )
    p.add_argument(
        "--timeout", type=float, default=5.0,
        help="wall bound on the exchange, seconds (default %(default)s)",
    )
    p.add_argument(
        "--recent", type=int, default=20,
        help="span window for the sessions verb (default %(default)s)",
    )


def _cmd_ops(args: argparse.Namespace, progress: Progress) -> int:
    if args.port is None:
        raise SystemExit("repro ops: --port PORT is required "
                         "(the gateway's ops port, see its banner)")
    fields = {"recent": args.recent} if args.verb == "sessions" else {}
    try:
        reply = ops_query_sync(
            args.host, args.port, args.verb, timeout=args.timeout, **fields
        )
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach ops endpoint {args.host}:{args.port} ({exc}) — "
            f"is `repro serve` running with an ops port?"
        )
    except TimeoutError:
        raise SystemExit(
            f"ops endpoint {args.host}:{args.port} did not answer within "
            f"{args.timeout:g}s"
        )
    except ValueError as exc:
        raise SystemExit(f"repro ops: {exc}")
    print(format_reply(reply))
    return 0


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def _top_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1", help="gateway address")
    p.add_argument(
        "--port", type=int, default=None,
        help="the gateway's ops port (live mode)",
    )
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="replay a recorded JSONL trace instead of polling a gateway",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between redraws (default %(default)s)",
    )
    p.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C); "
             "--frames 1 prints one snapshot and exits",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="with --trace: render every sample in sequence instead of "
             "only the run's final state",
    )


def _cmd_top(args: argparse.Namespace, progress: Progress) -> int:
    if args.trace is not None and args.port is not None:
        raise SystemExit("repro top: --trace and --port are exclusive "
                         "(one source per dashboard)")
    if args.trace is not None:
        run_trace(
            args.trace, out=sys.stdout, follow=args.follow,
            interval=args.interval if args.follow else 0.0,
        )
        return 0
    if args.port is None:
        raise SystemExit("repro top: either --port PORT (live) or "
                         "--trace FILE (replay) is required")
    run_live(
        args.host, args.port,
        interval=args.interval, frames=args.frames, out=sys.stdout,
    )
    return 0


register(
    ExperimentSpec(
        name="ops",
        help="query a running gateway's ops endpoint "
             f"({'/'.join(OPS_VERBS)})",
        run_cli=_cmd_ops,
        add_arguments=_ops_arguments,
        order=402,
        bare=True,
    )
)

register(
    ExperimentSpec(
        name="top",
        help="terminal dashboard: poll a live ops endpoint or replay a "
             "recorded trace",
        run_cli=_cmd_top,
        add_arguments=_top_arguments,
        order=403,
        bare=True,
    )
)
