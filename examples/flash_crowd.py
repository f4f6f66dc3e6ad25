#!/usr/bin/env python3
"""Flash crowd: a surprise hit stresses an oblivious placement.

The paper's motivation for even allocation + DRM is that real demand is
unpredictable.  This scenario makes that concrete: a VoD service placed
its replicas assuming moderate skew, then one mid-catalog title (rank
150 of 300 — two replicas, like everything else) suddenly attracts a
burst of requests.

We replay the *same* arrival trace (base Poisson workload + flash
crowd) against four configurations and compare how much of the surge
each one survives.  The punchline matches Section 4.5: staging + DRM
rescue the naive placement without any re-replication.

Run:
    python examples/flash_crowd.py
"""

from repro import SMALL_SYSTEM, MigrationPolicy, SimulationConfig
from repro.analysis.report import render_table
from repro.simulation import Simulation
from repro.sim.rng import RandomStreams
from repro.units import hours
from repro.workload.trace import generate_trace
from repro.workload.zipf import ZipfPopularity

SURPRISE_HIT = 150           # mid-catalog title nobody planned for
DURATION = hours(8)
CROWD_START = hours(3)
CROWD_LENGTH = hours(2)


def build_trace():
    """Base workload at ~95 % load plus a burst for the surprise hit."""
    streams = RandomStreams(seed=7)
    popularity = ZipfPopularity(SMALL_SYSTEM.n_videos, theta=0.5)
    # Use a probe simulation for the calibrated rate, then materialise.
    probe = Simulation(SimulationConfig(
        system=SMALL_SYSTEM, theta=0.5, duration=60.0, seed=7, load=0.95,
    ))
    base = generate_trace(
        DURATION, probe.arrival_rate, popularity, streams.get("trace")
    )
    # Flash crowd: an extra request every ~20 s for two hours — about
    # 360 surprise streams, ~2x the cluster's per-title plan.
    return base.with_flash_crowd(
        video_id=SURPRISE_HIT,
        start=CROWD_START,
        duration=CROWD_LENGTH,
        extra_rate=1 / 20.0,
        rng=streams.get("crowd"),
    )


def replay(trace, staging_fraction, migration):
    """Replay the trace against one configuration."""
    config = SimulationConfig(
        system=SMALL_SYSTEM, theta=0.5, placement="even",
        staging_fraction=staging_fraction, migration=migration,
        duration=DURATION, seed=7,
    )
    sim = Simulation(config)
    hit = {"total": 0, "accepted": 0}

    def watch(outcome, request):
        """How did requests for the surprise hit fare?"""
        if request.video.video_id == SURPRISE_HIT:
            hit["total"] += 1
            if outcome.accepted:
                hit["accepted"] += 1

    # A plain callable on the controller's decision notifications.
    sim.controller.on_decision.append(watch)
    # The fixed trace replaces the configured arrival process: each
    # request is submitted at its time, then the run is ended.
    for request in trace:
        sim.submit(request.time, request.video_id)
    sim.advance(DURATION)
    result = sim.finish()
    return result, hit["total"], hit["accepted"]


def main() -> None:
    trace = build_trace()
    print(f"Workload: {len(trace)} requests over {DURATION/3600:.0f} h, "
          f"including a flash crowd for video #{SURPRISE_HIT} "
          f"between t={CROWD_START/3600:.0f}h and "
          f"t={(CROWD_START+CROWD_LENGTH)/3600:.0f}h")
    print()

    scenarios = [
        ("bare cluster", 0.0, MigrationPolicy.disabled()),
        ("staging only", 0.2, MigrationPolicy.disabled()),
        ("DRM only", 0.0, MigrationPolicy.paper_default()),
        ("staging + DRM", 0.2, MigrationPolicy.paper_default()),
    ]
    rows = []
    for label, staging, migration in scenarios:
        result, hit_total, hit_accepted = replay(trace, staging, migration)
        rows.append([
            label,
            result.utilization,
            result.acceptance_ratio,
            f"{hit_accepted}/{hit_total}",
            result.migrations,
        ])
    print(render_table(
        ["Configuration", "Utilization", "Accept ratio",
         "Hit accepted", "Migrations"],
        rows,
        title="Surviving a flash crowd on an oblivious placement",
    ))
    print()
    print("Reading: with 20% staging and chain-1 migration the cluster "
          "absorbs the surge\nwithout re-replicating anything — the "
          "paper's core claim in miniature.")


if __name__ == "__main__":
    main()
