"""Figure 5 — the effect of client staging.

Setup (Section 4.3): even placement, **no** migration, client receive
bandwidth capped at 30 Mb/s, staging buffer swept over {0 %, 2 %, 20 %,
100 %} of the average video size.

Expected shape: 20 % captures almost all of the 100 % benefit ("the
most notable result"); the gain is larger on the small system, whose
lower server-to-view bandwidth ratio leaves more fluctuation for
staging to smooth.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

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

#: The paper's staging degrees (fraction of the mean video size).
BUFFER_FRACTIONS: Sequence[float] = (0.0, 0.02, 0.2, 1.0)


def variants_for(fractions: Sequence[float] = BUFFER_FRACTIONS) -> List[Variant]:
    return [
        Variant(f"{frac:.0%} buffer", {"staging_fraction": frac})
        for frac in fractions
    ]


def base_config(system: SystemConfig, seed: int) -> SimulationConfig:
    """The Section 4.3 setup every Figure 5 curve shares."""
    return SimulationConfig(
        system=system,
        theta=0.0,
        placement="even",
        migration=MigrationPolicy.disabled(),
        scheduler="eftf",
        seed=seed,
    )


def run_fig5(
    system: SystemConfig = LARGE_SYSTEM,
    theta_values: Optional[List[float]] = None,
    fractions: Sequence[float] = BUFFER_FRACTIONS,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Reproduce one panel of Figure 5 (utilization vs θ per buffer)."""
    return run_sweep(
        base_config(system, seed),
        theta_values if theta_values is not None else THETA_GRID,
        variants_for(fractions),
        resolve_scale(scale),
        base_seed=seed,
        progress=progress,
    )


_PAYS = "client staging improves utilization"
_NEAR_FULL = "almost the maximum benefit with a buffer of only 20% of the video"


def _share_of_full(result: SweepResult) -> float:
    """The 20 % buffer's gain over no buffer as a share of the full
    buffer's; a full buffer that gains nothing has no benefit to be
    near, which fails the claim."""
    full = result.mean_gap("100% buffer", "0% buffer")
    if full <= 0:
        raise ArithmeticError(f"full-buffer gain {full:.4f} is not positive")
    return result.mean_gap("20% buffer", "0% buffer") / full


register_figure(
    "fig5",
    "effect of client staging (Figure 5)",
    run_fig5,
    title="Figure 5",
    stem="fig5",
    order=20,
    panels=True,
    claims=[
        Claim("FIG5.staging_pays.small", _PAYS,
              lambda r: r.mean_gap("20% buffer", "0% buffer"),
              ">", 0.01, panels=("small",)),
        Claim("FIG5.twenty_percent_near_full.small", _NEAR_FULL,
              _share_of_full, ">=", 0.75, panels=("small",)),
        Claim("FIG5.staging_pays.large", _PAYS,
              lambda r: r.mean_gap("20% buffer", "0% buffer"),
              ">=", 0.0, panels=("large",)),
        Claim("FIG5.twenty_percent_near_full.large", _NEAR_FULL,
              lambda r: r.mean_gap("100% buffer", "20% buffer"),
              "<", 0.05, panels=("large",)),
        Claim("FIG5.small_gains_more",
              "staging's benefit is more pronounced for the smaller server",
              lambda small, large: (
                  small.at("20% buffer", 0.25) - small.at("0% buffer", 0.25)
              ) - (large.at("20% buffer", 0.25) - large.at("0% buffer", 0.25)),
              ">", -0.01, panels=("small", "large")),
    ],
)
