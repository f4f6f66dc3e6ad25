"""EXT-MIX — heterogeneous client capabilities.

Section 6 observes that "client resource capabilities can vary"; the
staging results (Figure 5) assume every client has the same buffer.
This experiment sweeps the fraction of *buffer-less* clients (legacy
set-top boxes) mixed with 20 %-staging clients and measures how the
system-wide benefit degrades.

Expected shape: utilization interpolates smoothly between the all-
staged and no-staging endpoints — partial deployment of client staging
already pays, so a service can roll buffers out incrementally.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

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

#: Fraction of clients WITHOUT a staging buffer.
LEGACY_FRACTIONS: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)


def mix_for(legacy_fraction: float):
    """A two-class population: legacy (no buffer) vs staged (20 %)."""
    if legacy_fraction <= 0.0:
        return ((1.0, 0.2),)
    if legacy_fraction >= 1.0:
        return ((1.0, 0.0),)
    return ((legacy_fraction, 0.0), (1.0 - legacy_fraction, 0.2))


def run_client_mix_series(
    system: SystemConfig = SMALL_SYSTEM,
    legacy_fractions: Sequence[float] = LEGACY_FRACTIONS,
    theta: float = 0.27,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Utilization vs legacy-client fraction (x = legacy fraction)."""
    base = SimulationConfig(
        system=system,
        theta=theta,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        scheduler="eftf",
        seed=seed,
    )
    return run_sweep(
        base,
        [float(frac) for frac in legacy_fractions],
        [Variant("utilization")],
        resolve_scale(scale),
        x_field="legacy_fraction",
        base_seed=seed,
        progress=progress,
        # client_mix is structured, not a scalar field x can be
        # assigned to.
        cell_config=lambda base, _variant, frac: dataclasses.replace(
            base, client_mix=mix_for(frac)
        ),
    )


_ROLLOUT = "partial deployment of client staging already pays"

register_figure(
    "mix",
    "heterogeneous client capabilities (EXT-MIX)",
    run_client_mix_series,
    title="EXT-MIX: partial deployment of client staging",
    stem="ext_mix",
    order=80,
    claims=[
        Claim("EXT-MIX.all_staged_beats_all_legacy", _ROLLOUT,
              lambda r: r.at("utilization", 0.0) - r.at("utilization", 1.0), ">", 0.02),
        Claim("EXT-MIX.monotone_within_noise",
              "utilization declines as the buffer-less fraction grows",
              lambda r: max(np.diff(r.means("utilization"))), "<=", 0.01),
        Claim("EXT-MIX.half_rollout_pays", _ROLLOUT,
              lambda r: (r.at("utilization", 0.5) - r.at("utilization", 1.0))
              / (r.at("utilization", 0.0) - r.at("utilization", 1.0)), ">=", 0.3),
    ],
)
