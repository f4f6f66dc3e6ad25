"""Availability under chaos — accepted-stream availability vs MTBF.

The paper stops at the observation that DRM "can help deal with node
server failures" (Section 3.1); this experiment quantifies it.  A
seeded :class:`~repro.faults.FaultPlan` crashes servers with
exponential MTBF/MTTR while a bounded retry queue
(:class:`~repro.faults.RetryPolicy`) resubmits the victims; the
measured metric is the :class:`~repro.SimulationResult` ``availability``
— the fraction of distinct viewers not permanently denied service.

Curves: **EFTF + DRM** (failover can relocate orphans through migration
chains) vs **no DRM** (orphans survive only if a direct replica slot is
free).  Expected shape: availability rises with MTBF for both curves
and the DRM curve dominates, with the gap widest at low MTBF where
relocation happens constantly.

The x-axis is the per-server MTBF in *hours* — not a flat
``SimulationConfig`` field, so the sweep uses :func:`run_sweep`'s
``cell_config`` hook to rebuild the nested plan per grid point.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.cluster.system import SMALL_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.faults import CrashFaults, FaultPlan, RetryPolicy
from repro.experiments.registry import register_figure
from repro.simulation import SimulationConfig
from repro.units import hours

#: Per-server mean-time-between-failures grid, hours.
MTBF_GRID_HOURS: List[float] = [0.5, 1.0, 2.0, 4.0, 8.0]

#: Repair time is held fixed so the x-axis isolates failure frequency.
MTTR_HOURS: float = 0.25


def availability_variants() -> List[Variant]:
    """EFTF+DRM vs no-DRM (admission *and* failover rescue differ)."""
    return [
        Variant("EFTF + DRM", {"migration": MigrationPolicy.paper_default()}),
        Variant("no DRM", {"migration": MigrationPolicy.disabled()}),
    ]


def _mtbf_cell(
    base: SimulationConfig, variant: Variant, mtbf_hours: float
) -> SimulationConfig:
    """One grid cell: the variant plus a fault plan with this MTBF."""
    return dataclasses.replace(
        variant.apply(base),
        faults=FaultPlan(
            crash=CrashFaults(
                mtbf=hours(mtbf_hours), mttr=hours(MTTR_HOURS)
            ),
            start=base.warmup,
        ),
    )


def run_availability(
    system: SystemConfig = SMALL_SYSTEM,
    mtbf_values: Optional[List[float]] = None,
    scale: Optional[float] = None,
    seed: int = 0,
    theta: float = 0.3,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Sweep availability vs per-server MTBF, EFTF+DRM vs no-DRM."""
    base = SimulationConfig(
        system=system,
        theta=theta,
        placement="even",
        staging_fraction=0.2,
        scheduler="eftf",
        seed=seed,
        retry=RetryPolicy(),
    )
    return run_sweep(
        base,
        mtbf_values if mtbf_values is not None else MTBF_GRID_HOURS,
        availability_variants(),
        resolve_scale(scale),
        metric="availability",
        x_field="mtbf_hours",
        base_seed=seed,
        progress=progress,
        cell_config=_mtbf_cell,
    )


register_figure(
    "availability",
    "availability vs MTBF, EFTF+DRM vs no-DRM",
    run_availability,
    title="Availability vs MTBF",
    panels=True,
    chaos=True,
)
