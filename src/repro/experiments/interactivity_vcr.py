"""EXT-VCR — viewer interactivity (pause/resume).

Section 6 lists "interactivity in semi-continuous transmission" among
future research directions, and Theorem 1's optimality proof assumes
"the videos are not paused".  This experiment relaxes that assumption:
a stochastic pause/resume process is attached to every admitted viewer
(:mod:`repro.workload.interactivity`) and pause intensity is swept.

Expected shape:

* utilization and acceptance decline smoothly with pause intensity —
  a paused viewer's stream keeps its minimum-flow slot while its
  playback makes no progress, so slots are held longer;
* client staging softens the decline: a paused viewer's buffer keeps
  absorbing workahead until full, so transmissions still finish early;
* no underruns at any intensity — the minimum-flow floor plus the
  pause-exemption (idle once the buffer is full) keep playback safe.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

from repro.cluster.system import SMALL_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.simulation import SimulationConfig

#: Pause intensities: expected pauses per hour of viewing.
PAUSES_PER_HOUR: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0)


def variants() -> List[Variant]:
    return [
        Variant("no staging", {"staging_fraction": 0.0}),
        Variant("20% staging", {"staging_fraction": 0.2}),
    ]


def run_interactivity(
    system: SystemConfig = SMALL_SYSTEM,
    pauses_per_hour: Sequence[float] = PAUSES_PER_HOUR,
    mean_pause: float = 300.0,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Utilization vs pause intensity, with and without staging."""
    base = SimulationConfig(
        system=system,
        theta=0.27,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        scheduler="eftf",
        seed=seed,
        client_receive_bandwidth=30.0,
        mean_pause=mean_pause,
    )
    return run_sweep(
        base,
        [float(p) for p in pauses_per_hour],
        variants(),
        resolve_scale(scale),
        x_field="pauses_per_hour",
        base_seed=seed,
        progress=progress,
        # The config field is a per-second hazard; 0 stays exactly 0
        # (disabled).
        cell_config=lambda base, variant, pauses: dataclasses.replace(
            variant.apply(base), pause_hazard=pauses / 3600.0
        ),
    )


_GRACEFUL = "utilization declines smoothly with pause intensity"

register_figure(
    "vcr",
    "viewer pause/resume interactivity (EXT-VCR)",
    run_interactivity,
    title="EXT-VCR: viewer pause/resume interactivity",
    stem="ext_vcr",
    order=70,
    claims=[
        Claim("EXT-VCR.pausing_costs_utilization",
              "a paused viewer holds its slot while playback stalls",
              lambda r: r.at("no staging", 4.0) - r.at("no staging", 0.0), "<", -0.02),
        Claim("EXT-VCR.staged_declines_too", _GRACEFUL,
              lambda r: r.at("20% staging", 4.0) - r.at("20% staging", 0.0), "<", 0.01),
        Claim("EXT-VCR.staging_keeps_advantage",
              "client staging softens the decline at every intensity",
              lambda r: min(r.gap("20% staging", "no staging")), ">=", -0.01),
        Claim("EXT-VCR.no_collapse", _GRACEFUL,
              lambda r: r.at("20% staging", 4.0), ">", 0.5),
    ],
)
