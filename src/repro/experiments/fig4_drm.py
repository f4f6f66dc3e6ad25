"""Figure 4 — the effect of Dynamic Request Migration.

Setup (Section 4.2): even video allocation, "only enough staging at the
client to allow for request migration" (we model that as a zero staging
buffer with an instantaneous switch), migration chain length 1.

Curves:

* **large system** — no migration / hops per request = 1 / unlimited
  hops per request;
* **small system** — no migration / migration (chain length = 1).

Expected shape: migration lifts utilization across the θ range;
hops = 1 is nearly indistinguishable from unlimited hops; every curve
sags at strongly negative θ where even placement runs out of copies of
the hot videos.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.system import LARGE_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    THETA_GRID,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.simulation import SimulationConfig


_CHAIN_1, _ONE_HOP = "migration: chain length = 1", "hops per request = 1"


def variants_for(system_name: str) -> List[Variant]:
    """The Figure 4 curve set for each panel."""
    no_migration = Variant(
        "no migration", {"migration": MigrationPolicy.disabled()}
    )
    if system_name == "large":
        return [
            no_migration,
            Variant(_ONE_HOP, {"migration": MigrationPolicy.paper_default()}),
            Variant(
                "unlimited hops",
                {"migration": MigrationPolicy.unlimited_hops()},
            ),
        ]
    return [
        no_migration,
        Variant(_CHAIN_1, {"migration": MigrationPolicy.paper_default()}),
    ]


def base_config(system: SystemConfig, seed: int) -> SimulationConfig:
    """The Section 4.2 setup every Figure 4 curve shares."""
    return SimulationConfig(
        system=system,
        theta=0.0,
        placement="even",
        staging_fraction=0.0,
        scheduler="eftf",
        seed=seed,
    )


def run_fig4(
    system: SystemConfig = LARGE_SYSTEM,
    theta_values: Optional[List[float]] = None,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Reproduce one panel of Figure 4 (utilization vs θ)."""
    return run_sweep(
        base_config(system, seed),
        theta_values if theta_values is not None else THETA_GRID,
        variants_for(system.name),
        resolve_scale(scale),
        base_seed=seed,
        progress=progress,
    )


_IMPROVES = "chain-length-1 migration can significantly improve utilization"

register_figure(
    "fig4",
    "effect of dynamic request migration (Figure 4)",
    run_fig4,
    title="Figure 4",
    stem="fig4",
    order=10,
    panels=True,
    claims=[
        Claim("FIG4.migration_helps_on_average", _IMPROVES,
              lambda r: r.mean_gap(_CHAIN_1, "no migration"), ">", 0.0, panels=("small",)),
        Claim("FIG4.migration_never_hurts", _IMPROVES,
              lambda r: min(r.gap(_CHAIN_1, "no migration")),
              ">=", -0.02, panels=("small",)),
        Claim("FIG4.one_hop_helps_on_average", _IMPROVES,
              lambda r: r.mean_gap(_ONE_HOP, "no migration"),
              ">=", 0.0, panels=("large",)),
        Claim("FIG4.one_hop_near_unlimited",
              "one hop per request is almost as good as unlimited hops",
              lambda r: max(map(abs, r.gap(_ONE_HOP, "unlimited hops"))),
              "<", 0.03, panels=("large",)),
        Claim("FIG4.even_sags_under_skew",
              "even allocation causes low utilization at negative Zipf values",
              lambda r: r.at(_ONE_HOP, -1.5) - r.at(_ONE_HOP, 0.5),
              "<", 0.0, panels=("large",)),
    ],
)
