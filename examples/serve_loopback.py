#!/usr/bin/env python3
"""Live serving walkthrough: gateway + load generator on loopback.

The simulator's EFTF/DRM policy core can serve real TCP connections
(docs/SERVING.md).  This example puts the committed
``scenarios/serve_loopback.json`` through the gate — the function
behind ``repro-vod verify`` (docs/ROBUSTNESS.md, "The gate") — and
reads its report back:

1. the **virtual leg** simulates the scenario twice at the same seed,
   the first run a :class:`repro.serve.PolicyBridge` recording every
   arrival's decision;
2. the **live leg** starts a :class:`repro.serve.ClusterGateway` on an
   ephemeral loopback port — the same
   :class:`~repro.simulation.SimulationConfig`, mounted on asyncio —
   and replays that simulation's own arrivals with
   :class:`repro.serve.LoadGenerator` at 40x time compression, one
   live client (staging buffer + underrun accounting) per arrival;
3. the **checks** hold the run to the **parity contract**: the live
   admit/reject/migrate decision digest must equal the virtual one,
   with zero client underruns, parity clamps and leaked asyncio tasks.

Takes a few wall seconds (~90 virtual seconds of cluster time).

Run:
    python examples/serve_loopback.py
"""

import pathlib
import sys

from repro.experiments.verify import verify
from repro.scenario import load_scenario

SCENARIO = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scenarios"
    / "serve_loopback.json"
)


def main() -> int:
    report = verify(load_scenario(SCENARIO))
    (live,) = report["live"]
    load = live["load"]
    print(f"scenario {report['scenario']!r}: legs {report['legs']}, "
          f"checks {report['checks']}")
    print(
        f"sessions: {load['sessions']}  accepted: {load['accepted']}  "
        f"rejected: {load['rejected']}  errors: {load['errors']}"
    )
    print(
        f"underruns: {load['underruns']}  "
        f"peak concurrency: {load['peak_concurrency']}  "
        f"delivered: {load['delivered_mb']:.0f} Mb"
    )
    digests = report["digests"]
    print(f"decision digests: virtual {digests['virtual']}, "
          f"live {digests['live'][0]}")
    print(f"gateway utilization summary: {live['summary']['policy']}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(f"sim-vs-live decision parity: "
          f"{'BROKEN' if report['failures'] else 'OK'}")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
