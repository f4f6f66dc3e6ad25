"""EXT-HET — heterogeneity of server resources (Section 4.6).

"Our experiments were conducted on 3 classes of systems with 5, 10 and
20 servers … we studied the impact of bandwidth and storage
heterogeneity …  The results show that the effect of heterogeneity is
more pronounced with the smaller system …  the effect of storage
heterogeneity … seems to be much less pronounced than bandwidth
heterogeneity."

For each server count we compare a homogeneous cluster against
capacity-matched clusters with ±spread bandwidth or storage (totals
preserved, see :func:`repro.cluster.system.heterogeneous_bandwidth`),
under DRM + 20 % staging at a saturating load.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cluster.system import (
    SMALL_SYSTEM,
    heterogeneous_bandwidth,
    heterogeneous_storage,
    sized_system,
)
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.simulation import SimulationConfig

#: The paper's three cluster classes.
SERVER_COUNTS: Sequence[int] = (5, 10, 20)

#: Relative spread of the heterogeneous variants (±50 %).
DEFAULT_SPREAD: float = 0.5


def run_heterogeneity(
    server_counts: Sequence[int] = SERVER_COUNTS,
    spread: float = DEFAULT_SPREAD,
    theta: float = 0.27,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Utilization for homogeneous / het-bandwidth / het-storage
    clusters (x = server count)."""
    # Every (count, kind) cell has its own system; draw them all up
    # front so the spreads come off one RNG in a fixed order however
    # the grid is executed.
    counts = [int(count) for count in server_counts]
    rng = np.random.default_rng(seed + 99)
    systems = {}
    for count in counts:
        homogeneous = sized_system(count, base=SMALL_SYSTEM)
        systems[count, "homogeneous"] = homogeneous
        systems[count, "het bandwidth"] = heterogeneous_bandwidth(
            homogeneous, spread, rng
        )
        systems[count, "het storage"] = heterogeneous_storage(
            homogeneous, spread, rng
        )
    base = SimulationConfig(
        system=SMALL_SYSTEM,       # replaced per cell
        theta=theta,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        scheduler="eftf",
        seed=seed,
    )
    return run_sweep(
        base,
        counts,
        [
            Variant("homogeneous"),
            Variant("het bandwidth"),
            Variant("het storage"),
        ],
        resolve_scale(scale),
        x_field="servers",
        base_seed=seed,
        progress=progress,
        cell_config=lambda base, variant, count: dataclasses.replace(
            base, system=systems[count, variant.label]
        ),
    )


TITLE = "EXT-HET: utilization under resource heterogeneity"

register_figure(
    "het",
    "resource heterogeneity (EXT-HET)",
    run_heterogeneity,
    title=TITLE,
    stem="ext_het",
    order=100,
    claims=[
        Claim("EXT-HET.bandwidth_hurts_more_than_storage",
              "storage heterogeneity is much less pronounced than bandwidth",
              lambda r: r.mean_gap("het storage", "het bandwidth"), ">", -0.01),
        Claim("EXT-HET.storage_nearly_free",
              "storage heterogeneity is statistically marginal",
              lambda r: abs(r.mean_gap("homogeneous", "het storage")), "<", 0.05),
        Claim("EXT-HET.penalty_shrinks_with_size",
              "heterogeneity is more pronounced with the smaller system",
              lambda r: r.gap("homogeneous", "het bandwidth")[-1]
              - r.gap("homogeneous", "het bandwidth")[0], "<", 0.02),
    ],
)
