"""EXT-SVBR — utilization vs server-to-view bandwidth ratio.

Section 3.2 attributes much of the baseline robustness to the **large
server-to-view bandwidth ratio** and refers to an analytic expression
for one-server utilization (the full version, TR 01-47).  A single
server under continuous transmission is an Erlang loss system
(M/G/m/m with m = SVBR), so the analytic curve is ``1 − B(m, m)`` —
see :mod:`repro.analysis.erlang`.

This experiment sweeps SVBR on a one-server system and overlays the
simulated utilization with the analytic curve; their agreement is the
paper's own validation of the simulator, reproduced here (and enforced
by an integration test).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.erlang import erlang_b_utilization
from repro.analysis.stats import summarize
from repro.cluster.system import SystemConfig, homogeneous
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    SweepResult,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Claim, register_figure
from repro.simulation import SimulationConfig
from repro.units import minutes

#: Default SVBR grid (streams per server); 33 and 100 are the paper's
#: small- and large-system operating points.
SVBR_GRID: Sequence[int] = (5, 10, 20, 33, 50, 100)


def one_server_system(svbr: int, view_bandwidth: float = 3.0) -> SystemConfig:
    """A single-server system with the given stream capacity.

    The catalog is small (every video on the one server) so placement
    is immaterial; lengths use the small-system range.
    """
    return homogeneous(
        name=f"svbr{svbr}",
        n_servers=1,
        bandwidth=svbr * view_bandwidth,
        disk_capacity_gb=1000.0,
        n_videos=20,
        video_length_range=(minutes(10), minutes(30)),
        avg_copies=1.0,
        view_bandwidth=view_bandwidth,
    )


def run_svbr(
    svbr_values: Sequence[int] = SVBR_GRID,
    theta: float = 0.27,
    load: float = 1.0,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Sweep SVBR: simulated vs Erlang-B analytic utilization.

    The result's ``simulated`` curve is the sweep; ``erlang-B`` is the
    analytic value at each grid point (a one-sample summary, so its
    confidence interval is the value itself).
    """
    grid = [int(svbr) for svbr in svbr_values]
    base = SimulationConfig(
        system=one_server_system(grid[0]),      # replaced per cell
        theta=theta,
        placement="even",
        migration=MigrationPolicy.disabled(),
        staging_fraction=0.0,      # continuous transmission
        scheduler="none",
        load=load,
        seed=seed,
    )
    result = run_sweep(
        base,
        grid,
        [Variant("simulated")],
        resolve_scale(scale),
        x_field="svbr",
        base_seed=seed,
        progress=progress,
        cell_config=lambda base, _variant, svbr: dataclasses.replace(
            base, system=one_server_system(svbr)
        ),
    )
    result.curves["erlang-B"] = [
        summarize([erlang_b_utilization(svbr, load=load)]) for svbr in grid
    ]
    return result


TITLE = "EXT-SVBR: one-server utilization vs SVBR"
_GROWS = "utilization grows with the server-to-view bandwidth ratio"

register_figure(
    "svbr",
    "utilization vs SVBR + Erlang-B (EXT-SVBR)",
    run_svbr,
    title=TITLE,
    stem="ext_svbr",
    order=90,
    claims=[
        Claim("EXT-SVBR.erlang_monotone", _GROWS,
              lambda r: min(np.diff(r.means("erlang-B"))), ">", 0.0),
        Claim("EXT-SVBR.grows_with_svbr", _GROWS,
              lambda r: r.at("simulated", 100) - r.at("simulated", 5), ">", 0.0),
        Claim("EXT-SVBR.tracks_erlang_b",
              "the analytic one-server expression validates the simulator",
              lambda r: max(map(abs, r.gap("simulated", "erlang-B"))), "<", 0.06),
    ],
)
