"""Figures 6 & 7 — the P1–P8 policy comparison.

Figure 6 is the policy matrix (allocation × migration × staging);
Figure 7 sweeps all eight over θ on both systems, with DRM and 20 %
staging where the policy prescribes them.

Expected shape (Section 4.5): for θ ∈ [0, 1] the even-allocation
policies with both mechanisms (P4) match the clairvoyant P8 and beat
everything else; for θ < 0 the allocation scheme dominates and the
predictive policies (P5–P8) win.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.report import render_table
from repro.cluster.system import LARGE_SYSTEM, SystemConfig
from repro.core.policies import PAPER_POLICIES, Policy
from repro.experiments.base import (
    SweepResult,
    THETA_GRID,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import (
    Claim,
    register_figure,
    register_table,
)
from repro.simulation import SimulationConfig


def policy_variant(policy: Policy) -> Variant:
    """Map a Figure 6 policy onto config overrides."""
    return Variant(
        policy.name,
        {
            "placement": policy.placement,
            "migration": policy.migration_policy(),
            "staging_fraction": policy.staging_fraction,
        },
    )


def policy_matrix_table() -> str:
    """Figure 6 as an ASCII table."""
    rows = [
        [p.name, p.placement.capitalize(),
         "Migr" if p.migration else "No Migr",
         f"{p.staging_fraction:.0%} Buffer"]
        for p in PAPER_POLICIES.values()
    ]
    return render_table(
        ["Policy", "Allocation", "Migration", "Client Staging"],
        rows,
        title="Figure 6: policies evaluated",
    )


def base_config(system: SystemConfig, seed: int) -> SimulationConfig:
    """What all eight policies share (each variant sets the rest)."""
    return SimulationConfig(
        system=system,
        theta=0.0,
        scheduler="eftf",
        seed=seed,
        client_receive_bandwidth=30.0,
    )


def run_fig7(
    system: SystemConfig = LARGE_SYSTEM,
    theta_values: Optional[List[float]] = None,
    policies: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Reproduce one panel of Figure 7 (utilization vs θ per policy)."""
    chosen: Dict[str, Policy] = (
        {name: PAPER_POLICIES[name] for name in policies}
        if policies is not None
        else PAPER_POLICIES
    )
    return run_sweep(
        base_config(system, seed),
        theta_values if theta_values is not None else THETA_GRID,
        [policy_variant(p) for p in chosen.values()],
        resolve_scale(scale),
        base_seed=seed,
        progress=progress,
    )


def _cli_arguments(parser) -> None:
    parser.add_argument(
        "--policies", default=None,
        type=lambda text: text.split(",") if text else None,
        help="comma-separated subset, e.g. P1,P4,P8",
    )


_P4_P8 = "for theta in [0, 1] P4 is comparable to P8 and beats the others"
_ALLOCATION = "for negative theta the allocation scheme is the dominant factor"

register_figure(
    "fig7",
    "policy comparison P1-P8 (Figure 7)",
    run_fig7,
    title="Figure 7",
    stem="fig7",
    order=30,
    panels=True,
    # θ ≥ 0 is where the mechanisms suffice, θ ≤ −1 where placement
    # decides; the last two measure Figure 6's mechanisms one by one.
    claims=[
        claim
        for panel in ("large", "small")
        for claim in (
            Claim(f"FIG7.p4_near_p8.{panel}", _P4_P8,
                  lambda r: max(map(abs, r.gap("P4", "P8", lo=0.0))),
                  "<", 0.05, panels=(panel,)),
            Claim(f"FIG7.p4_beats_p1.{panel}", _P4_P8,
                  lambda r: r.mean_gap("P4", "P1", lo=0.0), ">", 0.0, panels=(panel,)),
            Claim(f"FIG7.predictive_wins_with_mechanisms.{panel}", _ALLOCATION,
                  lambda r: r.mean_gap("P8", "P4", hi=-1.0), ">", 0.0, panels=(panel,)),
            Claim(f"FIG7.predictive_wins_bare.{panel}", _ALLOCATION,
                  lambda r: r.mean_gap("P5", "P1", hi=-1.0), ">", 0.0, panels=(panel,)),
        )
    ] + [
        Claim("FIG7.both_mechanisms_beat_neither",
              "migration and staging together improve on neither",
              lambda r: r.at("P4", 0.25) - r.at("P1", 0.25), ">", 0.0, panels=("small",)),
        Claim("FIG7.staging_alone_beats_neither",
              "staging alone improves on the bare baseline",
              lambda r: r.at("P2", 0.25) - r.at("P1", 0.25), ">", 0.0, panels=("small",)),
    ],
    # One representative traced run: policy P4 (even + DRM + 20 %
    # staging).
    trace=(base_config, policy_variant(PAPER_POLICIES["P4"])),
    add_arguments=_cli_arguments,
    options=("policies",),
    preamble=policy_matrix_table,
)


register_table(
    "fig6",
    "print the policy matrix (Figure 6)",
    policy_matrix_table,
    stem="fig6_matrix",
    order=5,
)
