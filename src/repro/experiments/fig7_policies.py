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
from repro.cluster.system import (
    LARGE_SYSTEM,
    SMALL_SYSTEM,
    SYSTEMS,
    SystemConfig,
)
from repro.core.migration import MigrationPolicy
from repro.core.policies import PAPER_POLICIES, Policy
from repro.experiments.base import (
    ExperimentScale,
    SweepResult,
    THETA_GRID,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import (
    Artifact,
    ExperimentSpec,
    add_system_argument,
    register,
)
from repro.registry import RegistryError
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


def run_fig7(
    system: SystemConfig = LARGE_SYSTEM,
    theta_values: Optional[List[float]] = None,
    policies: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Reproduce one panel of Figure 7 (utilization vs θ per policy)."""
    exp_scale: ExperimentScale = resolve_scale(scale)
    chosen: Dict[str, Policy] = (
        {name: PAPER_POLICIES[name] for name in policies}
        if policies is not None
        else PAPER_POLICIES
    )
    base = SimulationConfig(
        system=system,
        theta=0.0,
        scheduler="eftf",
        duration=exp_scale.duration,
        warmup=exp_scale.warmup,
        seed=seed,
        client_receive_bandwidth=30.0,
    )
    return run_sweep(
        base,
        theta_values if theta_values is not None else THETA_GRID,
        [policy_variant(p) for p in chosen.values()],
        exp_scale,
        base_seed=seed,
        progress=progress,
    )


# ----------------------------------------------------------------------
# CLI self-registration (see repro.experiments.registry)
# ----------------------------------------------------------------------

def _cli_trace_config(
    system: SystemConfig, seed: int, scale: Optional[float]
) -> SimulationConfig:
    """One representative traced run: policy P4 (even + DRM + 20 %
    staging)."""
    exp_scale = resolve_scale(scale)
    return SimulationConfig(
        system=system,
        theta=0.0,
        placement="even",
        scheduler="eftf",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        client_receive_bandwidth=30.0,
        duration=exp_scale.duration,
        warmup=exp_scale.warmup,
        seed=seed,
    )


def _cli_arguments(parser) -> None:
    add_system_argument(parser)
    parser.add_argument(
        "--policies", default=None,
        help="comma-separated subset, e.g. P1,P4,P8",
    )


def _cli_run(args, progress) -> int:
    policies = args.policies.split(",") if args.policies else None
    try:
        result = run_fig7(
            system=SYSTEMS[args.system], policies=policies,
            scale=args.scale, seed=args.seed, progress=progress,
        )
    except RegistryError as exc:
        raise SystemExit(str(exc))
    print(policy_matrix_table())
    print()
    print(result.render(title=f"Figure 7 ({args.system} system)"))
    return 0


def _cli_artifacts(scale, seed, progress):
    for system in (LARGE_SYSTEM, SMALL_SYSTEM):
        title = f"Figure 7 ({system.name})"
        result = run_fig7(
            system=system, scale=scale, seed=seed, progress=progress,
        )
        yield Artifact(
            stem=f"fig7_{system.name}",
            title=title,
            text=result.render(title=title),
            sweep=result,
        )


register(ExperimentSpec(
    name="fig7",
    help="policy comparison P1-P8 (Figure 7)",
    run_cli=_cli_run,
    add_arguments=_cli_arguments,
    trace_config=_cli_trace_config,
    artifacts=_cli_artifacts,
    order=30,
))


def _cli_run_matrix(args, progress) -> int:
    print(policy_matrix_table())
    return 0


def _cli_matrix_artifacts(scale, seed, progress):
    yield Artifact(
        stem="fig6_matrix",
        title="Figure 6",
        text=policy_matrix_table(),
    )


register(ExperimentSpec(
    name="fig6",
    help="print the policy matrix (Figure 6)",
    run_cli=_cli_run_matrix,
    artifacts=_cli_matrix_artifacts,
    order=5,
    bare=True,
))


def main() -> None:  # pragma: no cover - CLI glue, exercised via repro.cli
    print(policy_matrix_table())
    print()
    for system in (LARGE_SYSTEM, SMALL_SYSTEM):
        result = run_fig7(system=system, progress=print)
        print()
        print(result.render(title=f"Figure 7 ({system.name} system)"))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
