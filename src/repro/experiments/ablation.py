"""EXT-ABL — spare-bandwidth scheduler ablation.

DESIGN.md calls out the choice of EFTF as the design decision Theorem 1
justifies; this ablation measures it against the alternatives in
:mod:`repro.core.schedulers` under the Figure 5 setup (20 % staging, no
migration, 30 Mb/s receive cap):

* ``eftf`` — the paper's earliest-finish-first greedy;
* ``proportional`` — spare split evenly (water-filling);
* ``lftf`` — latest-finish-first (adversarial straw man);
* ``none`` — spare idle (pure continuous transmission).

Expected shape: EFTF ≥ proportional > none, with LFTF between
proportional and none — freeing whole slots early (EFTF) is what turns
workahead into admission capacity.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cluster.system import SMALL_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    THETA_GRID_COARSE,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.simulation import SimulationConfig

SCHEDULERS: Sequence[str] = ("eftf", "proportional", "lftf", "none")


def run_ablation(
    system: SystemConfig = SMALL_SYSTEM,
    theta_values: Optional[List[float]] = None,
    schedulers: Sequence[str] = SCHEDULERS,
    staging_fraction: float = 0.2,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Utilization vs θ for each spare-bandwidth scheduler."""
    base = SimulationConfig(
        system=system,
        theta=0.0,
        placement="even",
        migration=MigrationPolicy.disabled(),
        staging_fraction=staging_fraction,
        seed=seed,
    )
    variants = [Variant(name, {"scheduler": name}) for name in schedulers]
    return run_sweep(
        base,
        theta_values if theta_values is not None else THETA_GRID_COARSE,
        variants,
        resolve_scale(scale),
        base_seed=seed,
        progress=progress,
    )


_GREEDY = "EFTF finishes no later than any minimum-flow rival (Theorem 1)"

register_figure(
    "ablation",
    "spare-bandwidth scheduler ablation",
    run_ablation,
    title="EXT-ABL: scheduler ablation",
    stem="ext_abl",
    order=50,
    claims=[
        Claim("EXT-ABL.workahead_pays",
              "sending ahead with the spare bandwidth beats leaving it idle",
              lambda r: r.mean_gap("eftf", "none"), ">", 0.01),
        Claim("EXT-ABL.eftf_at_least_proportional", _GREEDY,
              lambda r: r.mean_gap("eftf", "proportional"), ">=", -0.005),
        Claim("EXT-ABL.eftf_at_least_lftf", _GREEDY,
              lambda r: r.mean_gap("eftf", "lftf"), ">=", -0.005),
    ],
)
