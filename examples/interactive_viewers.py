#!/usr/bin/env python3
"""Interactive viewers: pause/resume behaviour on a loaded cluster.

The paper's Theorem 1 assumes "the videos are not paused"; real viewers
pause constantly.  This scenario attaches a stochastic pause/resume
process to every admitted stream (the EXT-VCR extension), samples the
cluster state every minute, and renders the trajectories as terminal
sparklines: you can watch paused viewers pile up during the evening and
the staging buffers absorb the churn.

Run:
    python examples/interactive_viewers.py
"""

from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.analysis.report import sparkline
from repro.analysis.timeseries import StateSampler
from repro.units import hours


def run_scenario(pauses_per_hour: float):
    config = SimulationConfig(
        system=SMALL_SYSTEM,
        theta=0.27,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        duration=hours(6),
        seed=31,
        pause_hazard=pauses_per_hour / 3600.0 if pauses_per_hour else 0.0,
        mean_pause=240.0,   # four-minute kitchen breaks
    )
    sim = Simulation(config)
    sampler = StateSampler(sim.engine, sim.controller, interval=60.0)
    result = sim.run()
    return sim, sampler.series, result


def main() -> None:
    width = 60
    for pauses_per_hour in (0.0, 2.0):
        sim, series, result = run_scenario(pauses_per_hour)
        capacity = sim.config.system.total_bandwidth
        label = (
            "calm viewers (no pauses)" if pauses_per_hour == 0.0
            else f"restless viewers ({pauses_per_hour:g} pauses/h, ~4 min each)"
        )
        print(f"=== {label}")
        print(f"  link usage   {sparkline(series.utilization_series(capacity), width)}")
        print(f"  live streams {sparkline(series.active_streams, width)}")
        print(f"  paused       {sparkline(series.paused_streams, width)}"
              f"   (peak {int(series.paused_streams.max())})")
        print(f"  buffers (Mb) {sparkline(series.mean_buffers, width)}")
        if sim.interactivity is not None:
            print(f"  pause events : {sim.interactivity.pauses_executed} "
                  f"(resumed {sim.interactivity.resumes_executed})")
        print(f"  utilization  : {result.utilization:.1%}   "
              f"acceptance: {result.acceptance_ratio:.1%}   "
              f"underruns: {result.underruns}")
        print()
    print("Reading: pausing viewers hold their minimum-flow slots while "
          "watching nothing, so\nacceptance and utilization sag — but "
          "playback never glitches (zero underruns):\nthe staging buffer "
          "plus the paused-and-full idle rule keep every viewer safe.")


if __name__ == "__main__":
    main()
