#!/usr/bin/env python3
"""Fault tolerance through dynamic request migration (Section 3.1).

"Dynamic request migration can also be used to engineer a limited
degree of fault tolerance into the server since the ability to
dynamically switch servers for a single stream can help deal with node
server failures."

This scenario runs the small reference cluster to a loaded steady
state, kills one server, and reports how many of its live streams DRM
relocates to surviving replica holders (versus dropped).  It then
restores the node and shows admissions recovering.

Run:
    python examples/failover_drm.py
"""

from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.core.failover import FailoverManager
from repro.units import hours

FAIL_AT = hours(3)
RESTORE_AT = hours(5)
END = hours(8)
VICTIM = 2


def main() -> None:
    config = SimulationConfig(
        system=SMALL_SYSTEM,
        theta=0.27,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        duration=END,
        seed=21,
        load=0.9,   # leave a little slack for orphans to land in
    )
    sim = Simulation(config)
    failover = FailoverManager(
        sim.engine,
        sim.controller.servers,
        sim.controller.managers,
        sim.placement_result.placement,
        sim.controller.metrics,
        sim.controller.on_drop,
    )

    # Schedule the outage as simulation events.
    sim.engine.schedule_at(
        FAIL_AT, lambda: failover.fail_server(VICTIM), kind="fail"
    )
    sim.engine.schedule_at(
        RESTORE_AT, lambda: failover.restore_server(VICTIM), kind="restore"
    )

    print(f"Running {SMALL_SYSTEM.n_servers}-server cluster at 90% load; "
          f"server {VICTIM} fails at t={FAIL_AT/3600:.0f}h, "
          f"returns at t={RESTORE_AT/3600:.0f}h")
    result = sim.run()

    report = failover.reports[0]
    survivors = len(report.relocated)
    lost = len(report.dropped)
    print()
    print(f"At failure, server {VICTIM} was carrying "
          f"{survivors + lost} live streams:")
    print(f"  relocated by DRM : {survivors}")
    print(f"  dropped          : {lost}")
    print(f"  survival ratio   : {report.survival_ratio:.1%}")
    print()
    print(f"Whole-run utilization  : {result.utilization:.1%} "
          f"(denominator includes the dead node's capacity)")
    print(f"Whole-run acceptance   : {result.acceptance_ratio:.1%}")
    print(f"Total migrations       : {result.migrations} "
          f"(admission DRM + failover moves)")
    print()
    print("Without client staging, every one of those streams would have "
          "glitched or died:\nthe staging buffer is what hides the "
          "switchover from the viewer.")


if __name__ == "__main__":
    main()
