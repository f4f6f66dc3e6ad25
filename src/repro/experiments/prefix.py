"""EXT-PREFIX — the prefix-cache / stream-sharing tier (docs/CACHING.md).

The tier caches the heads of popular videos and chains a late viewer
onto a live stream of the same video (PAPERS.md, "Prefix based Chaining
Scheme for Streaming Popular Videos using Proxy servers in VoD"): a
chained viewer costs the servers at most a short patch stream, so the
tier buys capacity where the cluster has none left.

Setup: the ``prefix_zipf_overload`` micro-cluster at 140 % offered
load; rejection ratio vs θ with no tier and with the tier at a 10 s and
a 45 s batching window.  Expected shape: the tier rejects far less at
every skew, and the wider window never rejects more.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.cluster.system import SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    THETA_GRID_COARSE,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.prefix import PrefixPolicy
from repro.simulation import SimulationConfig

#: The ``prefix_zipf_overload`` scenario's config, bar its duration,
#: warm-up and seed (tests/test_prefix.py pins the two equal).
BASE = SimulationConfig(
    system=SystemConfig(
        name="prefix-overload-3",
        server_bandwidths=(30.0, 30.0, 30.0),
        disk_capacities=(4000.0, 4000.0, 4000.0),
        n_videos=12,
        video_length_range=(60.0, 90.0),
        avg_copies=2.2,
        view_bandwidth=3.0,
    ),
    theta=-0.5,
    placement="even",
    migration=MigrationPolicy(enabled=True),
    staging_fraction=0.3,
    client_receive_bandwidth=30.0,
    load=1.4,
    prefix=PrefixPolicy(
        strategy="popularity",
        batching="patch",
        capacity_mb=600.0,
        prefix_seconds=30.0,
        window_seconds=45.0,
    ),
)

_NONE, _NARROW, _WIDE = "no tier", "tier, 10 s", "tier, 45 s"

VARIANTS: List[Variant] = [
    Variant(_NONE, {"prefix": None}),
    Variant(_NARROW, {"prefix": dataclasses.replace(BASE.prefix, window_seconds=10.0)}),
    Variant(_WIDE, {"prefix": BASE.prefix}),
]


def run_prefix(
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Rejection ratio vs θ without the tier and at two windows."""
    return run_sweep(
        dataclasses.replace(BASE, seed=seed),
        THETA_GRID_COARSE,
        VARIANTS,
        resolve_scale(scale),
        metric="rejection_ratio",
        base_seed=seed,
        progress=progress,
    )


_CAPACITY = "sharing streams through a prefix cache buys capacity at overload"

register_figure(
    "prefix",
    "prefix-cache / stream-sharing tier vs the bare cluster at (>=100%) "
    "offered load (EXT-PREFIX)",
    run_prefix,
    title="EXT-PREFIX: rejection ratio with and without the prefix tier",
    stem="ext_prefix",
    order=97,
    claims=[
        Claim("EXT-PREFIX.tier_beats_baseline", _CAPACITY,
              lambda r: r.at(_NONE, -0.5) - r.at(_WIDE, -0.5), ">", 0.2),
        Claim("EXT-PREFIX.gain_at_every_skew", _CAPACITY,
              lambda r: min(r.gap(_NONE, _WIDE)), ">", 0.2),
        Claim("EXT-PREFIX.wider_window_never_hurts",
              "a wider batching window lets more viewers join a stream",
              lambda r: max(r.gap(_WIDE, _NARROW)), "<=", 0.0),
    ],
)
