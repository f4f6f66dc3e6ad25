"""FIG3 — the Figure 3 system-parameter table.

Regenerates the parameter table for the two reference systems and
runs the static phase (catalog + placement + wiring) of each.
"""

from repro.analysis.report import render_table
from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM
from repro.simulation import Simulation, SimulationConfig
from repro.units import mb_to_gb

from conftest import emit


def figure3_table() -> str:
    rows = []
    for label, getter in (
        ("Number of Servers", lambda s: s.n_servers),
        ("Bandwidth (Mb/s)", lambda s: s.server_bandwidths[0]),
        ("Video Length (min)", lambda s: (
            f"{s.video_length_range[0]/60:.0f}-{s.video_length_range[1]/60:.0f}"
        )),
        ("Number of Videos", lambda s: s.n_videos),
        ("Avg Copies Per Video", lambda s: s.avg_copies),
        ("Disk Capacity (GB)", lambda s: mb_to_gb(s.disk_capacities[0])),
        ("View Bandwidth (Mb/s)", lambda s: s.view_bandwidth),
        ("SVBR (streams/server)", lambda s: round(s.svbr, 1)),
    ):
        rows.append([label, getter(SMALL_SYSTEM), getter(LARGE_SYSTEM)])
    return render_table(
        ["Parameter", "Small", "Large"], rows, precision=1,
        title="Figure 3: parameters for the two video servers studied",
    )


def build_both_systems() -> tuple:
    """Full static build (catalog, placement, servers)."""
    sims = []
    for system in (SMALL_SYSTEM, LARGE_SYSTEM):
        sims.append(
            Simulation(
                SimulationConfig(
                    system=system, theta=0.27, duration=60.0, seed=0
                )
            )
        )
    return tuple(sims)


def test_fig3_system_table():
    small, large = build_both_systems()
    emit("")
    emit(figure3_table())
    # The built systems must honour the table.
    assert len(small.servers) == 5
    assert len(large.servers) == 20
    assert small.placement_result.shortfall == 0
    assert large.placement_result.shortfall == 0
    # Average copies per video ≈ 2.2 as placed.
    placed = small.placement_result.placement.total_copies()
    assert abs(placed / SMALL_SYSTEM.n_videos - 2.2) < 0.05
