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
from repro.experiments.registry import register_figure
from repro.simulation import SimulationConfig


def variants_for(system_name: str) -> List[Variant]:
    """The Figure 4 curve set for each panel."""
    no_migration = Variant(
        "no migration", {"migration": MigrationPolicy.disabled()}
    )
    if system_name == "large":
        return [
            no_migration,
            Variant(
                "hops per request = 1",
                {"migration": MigrationPolicy.paper_default()},
            ),
            Variant(
                "unlimited hops",
                {"migration": MigrationPolicy.unlimited_hops()},
            ),
        ]
    return [
        no_migration,
        Variant(
            "migration: chain length = 1",
            {"migration": MigrationPolicy.paper_default()},
        ),
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


register_figure(
    "fig4",
    "effect of dynamic request migration (Figure 4)",
    run_fig4,
    title="Figure 4",
    stem="fig4",
    order=10,
    panels=True,
    # One representative traced run: mid-theta, DRM on, no staging.
    trace=(base_config, variants_for("small")[1]),
)
