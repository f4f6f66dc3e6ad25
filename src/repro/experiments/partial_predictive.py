"""EXT-PP — partial predictive placement (Section 4.4).

"Even this mildly skewed allocation scheme in conjunction with dynamic
request migration and client staging can achieve comparable utilization
to a perfect predictive video allocation scheme."

Sweeps the strongly skewed θ range (where even allocation breaks) with
DRM + 20 % staging enabled, comparing even / partial predictive /
fully predictive placement.  Expected shape: partial ≈ predictive ≫
even at strongly negative θ; all comparable for θ ≥ 0.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.system import LARGE_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.simulation import SimulationConfig

#: θ grid focused on the skewed regime that separates the schemes.
SKEWED_THETA_GRID: List[float] = [-1.5, -1.0, -0.5, 0.0, 0.5]

VARIANTS: List[Variant] = [
    Variant("even", {"placement": "even"}),
    Variant("partial predictive", {"placement": "partial"}),
    Variant("predictive", {"placement": "predictive"}),
]


def run_partial_predictive(
    system: SystemConfig = LARGE_SYSTEM,
    theta_values: Optional[List[float]] = None,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Reproduce the partial-predictive comparison."""
    base = SimulationConfig(
        system=system,
        theta=0.0,
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        scheduler="eftf",
        seed=seed,
    )
    return run_sweep(
        base,
        theta_values if theta_values is not None else SKEWED_THETA_GRID,
        VARIANTS,
        resolve_scale(scale),
        base_seed=seed,
        progress=progress,
    )


_COMPARABLE = "a mildly skewed allocation is comparable to perfect predictive"

register_figure(
    "partial",
    "partial predictive placement (EXT-PP)",
    run_partial_predictive,
    title="EXT-PP: placement sophistication",
    stem="ext_pp",
    order=40,
    claims=[  # "skewed" is θ ≤ −1, where even allocation breaks
        Claim("EXT-PP.even_breaks_under_skew",
              "even allocation causes low utilization at negative Zipf values",
              lambda r: r.mean_gap("predictive", "even", hi=-1.0), ">", 0.03),
        Claim("EXT-PP.partial_recovers_most", _COMPARABLE,
              lambda r: r.mean_gap("predictive", "partial predictive", hi=-1.0)
              / r.mean_gap("predictive", "even", hi=-1.0), "<", 0.6),
        Claim("EXT-PP.comparable_at_uniform", _COMPARABLE,
              lambda r: abs(r.at("predictive", 0.0)
                            - r.at("partial predictive", 0.0)), "<", 0.05),
    ],
)
