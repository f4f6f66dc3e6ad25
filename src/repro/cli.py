"""Command-line interface: ``repro-vod`` / ``python -m repro``.

Subcommands regenerate each reproduced artifact::

    repro-vod fig4 --system large --scale 0.02
    repro-vod fig5 --system small
    repro-vod fig3 | fig6                           # the two tables
    repro-vod fig7 --system large --policies P1,P4,P8
    repro-vod svbr | partial | het | ablation       # full-version extras
    repro-vod replication | vcr | mix               # extension studies
    repro-vod all --outdir results                  # everything, CSVs, claims
    repro-vod run --system small --theta 0.3 --staging 0.2 --migrate
    repro-vod run --scenario scenarios/p4_small.json
    repro-vod verify scenarios/chaos_serve.json     # the gate (exit 1 on failure)
    repro-vod trace fig5 --trace-out fig5.jsonl     # structured trace
    repro-vod chaos availability                    # availability vs MTBF
    repro-vod chaos soak --hours 8                  # invariant-checked run

**Every experiment subcommand is generated from the experiment
registry** (:mod:`repro.experiments.registry`): importing
:mod:`repro.experiments` auto-discovers each experiment module, whose
self-registration block publishes its CLI name, help text, flags,
runner and ``repro all`` artifacts.  Adding an experiment is writing
one module — there is no import list or dispatch table here to edit
(docs/ARCHITECTURE.md).

``--scale`` (or REPRO_SCALE) trades fidelity for speed; 1.0 is the
paper's 5 trials × 1000 h.

Observability (see docs/OBSERVABILITY.md): every subcommand takes
``--trace-out PATH`` (append structured JSONL trace records) and
``--profile`` (per-event-kind wall-clock report on stderr).  Progress
lines go to **stderr**, so stdout stays machine-readable and composes
with ``--quiet``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro import __version__, obs
from repro import experiments as _experiments  # noqa: F401  (auto-discovery)
from repro.cluster.system import SYSTEMS
from repro.core.migration import MigrationPolicy
from repro.core.schedulers import ALLOCATORS
from repro.experiments.registry import (
    CHAOS_EXPERIMENTS,
    EXPERIMENTS,
    ExperimentSpec,
    trace_experiments,
)
from repro.obs import profiler as profiling
from repro.obs.runtime import PROFILE_VAR, TRACE_OUT_VAR
from repro.placement import PLACEMENTS
from repro.scenario import load_scenario_or_exit
from repro.simulation import Simulation, SimulationConfig, run_simulation
from repro.units import hours


def _progress(quiet: bool):
    """Progress callback (stderr via the obs logger) or None when quiet."""
    return obs.progress_printer(quiet)


def _add_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append structured trace records (JSONL) to PATH",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="report per-event-kind wall clock on stderr",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale", type=float, default=None,
        help="fidelity factor (1.0 = paper's 5 trials x 1000h; "
             "default from REPRO_SCALE or 0.01)",
    )
    p.add_argument("--seed", type=int, default=0, help="root random seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    _add_obs(p)


def _ordered(registry) -> List[ExperimentSpec]:
    """Registry entries in display order (spec.order, then name)."""
    return sorted(registry.values(), key=lambda s: (s.order, s.name))


#: ``repro run`` config-shaping flags: dest → (flag spelling, default).
#: One source of truth for the subparser defaults *and* the
#: scenario-conflict check (a scenario file *is* the config, so these
#: flags are mutually exclusive with ``--scenario``).
_RUN_DEFAULTS = {
    "system": ("--system", "small"),
    "theta": ("--theta", 0.27),
    "placement": ("--placement", "even"),
    "staging": ("--staging", 0.0),
    "migrate": ("--migrate", False),
    "sim_hours": ("--hours", 20.0),
    "warmup_hours": ("--warmup-hours", 2.0),
    "load": ("--load", 1.0),
    "scheduler": ("--scheduler", "eftf"),
    "seed": ("--seed", 0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vod",
        description="Semi-continuous transmission for cluster-based video "
                    "servers (CLUSTER 2001 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -- experiment subcommands, generated from the registry -----------
    for spec in _ordered(EXPERIMENTS):
        # Help strings are stored plain; argparse %-formats its own.
        p = sub.add_parser(spec.name, help=spec.help.replace("%", "%%"))
        if spec.add_arguments is not None:
            spec.add_arguments(p)
        if not spec.bare:
            _add_common(p)

    p = sub.add_parser(
        "all",
        help="regenerate every artifact; write tables and CSVs to --outdir",
    )
    p.add_argument("--outdir", default="results", help="output directory")
    _add_common(p)

    # -- chaos: modes and flags from the chaos registry ----------------
    p = sub.add_parser(
        "chaos",
        help="deterministic fault injection (repro.faults): "
             + "; ".join(
                 f"{spec.name}: {spec.help}"
                 for spec in _ordered(CHAOS_EXPERIMENTS)
             ),
    )
    p.add_argument(
        "experiment", choices=CHAOS_EXPERIMENTS.names(),
        help="; ".join(
            f"{name}: {CHAOS_EXPERIMENTS.help_for(name)}"
            for name in CHAOS_EXPERIMENTS.names()
        ),
    )
    p.add_argument("--system", default="small", choices=SYSTEMS.names())
    for spec in _ordered(CHAOS_EXPERIMENTS):
        if spec.add_arguments is not None:
            spec.add_arguments(p)
    _add_common(p)

    sub.add_parser(
        "list",
        help="print every pluggable registry (experiments, allocators, "
             "placements, arrivals, systems, paper policies)",
    )

    p = sub.add_parser(
        "run",
        help="one ad-hoc simulation, from flags or a scenario file",
    )
    p.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="run a declarative scenario JSON file (see scenarios/); "
             "mutually exclusive with the config flags below",
    )
    _d = {dest: default for dest, (_, default) in _RUN_DEFAULTS.items()}
    p.add_argument("--system", default=_d["system"], choices=SYSTEMS.names())
    p.add_argument("--theta", type=float, default=_d["theta"])
    p.add_argument("--placement", default=_d["placement"],
                   choices=PLACEMENTS.names())
    p.add_argument("--staging", type=float, default=_d["staging"],
                   help="staging buffer fraction of mean video size")
    p.add_argument("--migrate", action="store_true", help="enable DRM")
    p.add_argument("--hours", type=float, default=_d["sim_hours"],
                   dest="sim_hours")
    p.add_argument("--warmup-hours", type=float, default=_d["warmup_hours"])
    p.add_argument("--load", type=float, default=_d["load"])
    p.add_argument("--scheduler", default=_d["scheduler"],
                   choices=ALLOCATORS.names())
    p.add_argument("--seed", type=int, default=_d["seed"])
    _add_obs(p)

    p = sub.add_parser(
        "trace",
        help="run one representative traced simulation; dump JSONL + summary",
    )
    p.add_argument("experiment", choices=trace_experiments(),
                   help="which figure's setup to trace one run of")
    p.add_argument("--system", default="small", choices=SYSTEMS.names())
    p.add_argument(
        "--trace-out", default="trace.jsonl", metavar="PATH",
        help="JSONL output path (default: trace.jsonl)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="also report per-event-kind wall clock on stderr",
    )
    p.add_argument(
        "--scale", type=float, default=None,
        help="fidelity factor controlling the traced run's duration",
    )
    p.add_argument("--seed", type=int, default=0, help="random seed")

    return parser


def _ensure_writable(path: str) -> None:
    """Fail fast (before simulating for minutes) on an unwritable path."""
    obs.check_trace_path(path, flag="--trace-out")


def _cmd_trace(args) -> int:
    """``repro trace <experiment>``: one traced run, JSONL + summary."""
    _ensure_writable(args.trace_out)
    spec = EXPERIMENTS.get(args.experiment)
    config = spec.trace_config(SYSTEMS.get(args.system), args.seed, args.scale)
    tracer = obs.Tracer()
    profiler = obs.EventProfiler() if args.profile else None
    sim = Simulation(config, tracer=tracer, profiler=profiler)
    result = sim.run()
    lines = tracer.export_jsonl(args.trace_out, provenance=result.provenance)
    print(tracer.summary_table())
    print(
        f"wrote {lines} JSONL lines ({len(tracer.counts)} record kinds) "
        f"to {args.trace_out}"
    )
    if profiler is not None:
        print(profiler.report().render(), file=sys.stderr)
    return 0


@contextlib.contextmanager
def _obs_env(trace_out: Optional[str], profile: bool):
    """Export --trace-out/--profile as REPRO_* env for the dispatch.

    The env route reaches every Simulation an experiment constructs —
    including multi-trial sweeps — without threading options through
    experiment signatures.  Previous values are restored on exit so
    in-process callers (tests) don't leak state.
    """
    updates = {}
    if trace_out:
        updates[TRACE_OUT_VAR] = str(trace_out)
    if profile:
        updates[PROFILE_VAR] = "1"
    saved = {var: os.environ.get(var) for var in updates}
    os.environ.update(updates)
    try:
        yield
    finally:
        for var, old in saved.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old


def _run_all(args) -> int:
    """Regenerate every registered artifact; write tables + CSVs to
    ``--outdir``.  Exit 1 if any figure's claim fails.

    The report's content and ordering come from the experiment
    registry: each spec with an ``artifacts`` hook contributes its
    blocks (table, then its claims' PASS/FAIL lines) at its ``order``
    position.  The report carries no timestamp (the ``.meta.json``
    sidecars do), so regenerating it at the same seed and scale leaves
    a committed copy unchanged.
    """
    import pathlib

    from repro.analysis.export import sweep_to_csv

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    progress = _progress(args.quiet)
    scale, seed = args.scale, args.seed

    report_path = outdir / "all_artifacts.txt"
    verdicts: List[bool] = []
    with open(report_path, "w") as fh:
        fh.write(
            f"# repro {__version__} | seed={seed} "
            f"scale={scale if scale is not None else 'default'}\n\n"
        )
        for spec in _ordered(EXPERIMENTS):
            if spec.artifacts is None:
                continue
            for artifact in spec.artifacts(scale, seed, progress):
                fh.write(artifact.text + "\n\n")
                verdicts.extend(artifact.verdicts)
                if artifact.sweep is not None:
                    sweep_to_csv(artifact.sweep, outdir / f"{artifact.stem}.csv")
                if progress is not None and artifact.sweep is not None:
                    print()
                    print(artifact.text)
                    print()
        tally = (
            f"claims: {sum(verdicts)} passed, "
            f"{len(verdicts) - sum(verdicts)} failed"
        )
        fh.write(tally + "\n")
    print(tally)
    print(f"wrote {report_path} (+ per-figure CSVs) in {outdir}/")
    return 0 if all(verdicts) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        return _main(args)
    except BrokenPipeError:
        # Downstream pipe closed early (`repro list | head`): the cut
        # output is exactly what the user asked for, not an error.
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(args) -> int:
    if args.command == "trace":
        return _cmd_trace(args)

    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        _ensure_writable(trace_out)
    profile = bool(getattr(args, "profile", False))
    if profile:
        # Per-invocation report: drop whatever a previous in-process
        # call (tests) left in the aggregate.
        profiling.reset_aggregate()
    with _obs_env(trace_out, profile):
        rc = _dispatch(args)
    if profile:
        report = profiling.aggregate_report()
        if report is not None:
            print(report.render(), file=sys.stderr)
    return rc


def _run_config(args) -> SimulationConfig:
    """The ``repro run`` config: a scenario file or the config flags.

    A scenario file *is* the full configuration, so combining it with a
    config-shaping flag would silently ignore one of the two — reject
    the combination instead, naming the offending flag.
    """
    if args.scenario is None:
        return SimulationConfig(
            system=SYSTEMS.get(args.system),
            theta=args.theta,
            placement=args.placement,
            migration=(
                MigrationPolicy.paper_default()
                if args.migrate
                else MigrationPolicy.disabled()
            ),
            staging_fraction=args.staging,
            scheduler=args.scheduler,
            duration=hours(args.sim_hours),
            warmup=hours(args.warmup_hours),
            load=args.load,
            seed=args.seed,
        )
    overridden = [
        flag for dest, (flag, default) in _RUN_DEFAULTS.items()
        if getattr(args, dest) != default
    ]
    if overridden:
        raise SystemExit(
            f"--scenario provides the full configuration; "
            f"drop the conflicting flag(s): {', '.join(overridden)}"
        )
    scenario = load_scenario_or_exit(args.scenario)
    print(
        f"scenario {scenario.name!r}"
        + (f": {scenario.description}" if scenario.description else ""),
        file=sys.stderr,
    )
    return scenario.config


def _cmd_list() -> int:
    """``repro list``: one block per registry, in registration order.

    Each block comes straight from ``Registry.describe()`` — the same
    help strings the registration sites publish — so the listing stays
    complete by construction as plugins are added.
    """
    from repro.core.elastic import SCALE_TRIGGERS, WARMERS
    from repro.core.policies import PAPER_POLICIES
    from repro.prefix import BATCHING, PREFIX_STRATEGIES
    from repro.workload.arrivals import ARRIVALS

    sections = (
        ("experiments", EXPERIMENTS),
        ("chaos experiments", CHAOS_EXPERIMENTS),
        ("allocators", ALLOCATORS),
        ("placements", PLACEMENTS),
        ("arrivals", ARRIVALS),
        ("systems", SYSTEMS),
        ("paper policies", PAPER_POLICIES),
        ("scale triggers", SCALE_TRIGGERS),
        ("replica warmers", WARMERS),
        ("prefix strategies", PREFIX_STRATEGIES),
        ("batching policies", BATCHING),
    )
    for index, (title, registry) in enumerate(sections):
        if index:
            print()
        print(f"{title} ({len(registry)}):")
        described = registry.describe()
        width = max((len(name) for name in described), default=0)
        for name, help_text in described.items():
            line = " ".join(str(help_text).split())  # one line, always
            if registry is PLACEMENTS:
                # Every placement is membership-capable; show which
                # elastic lifecycle hooks each class provides.
                hooks = ", ".join(registry.get(name).lifecycle_hooks())
                line = f"{line} [lifecycle: {hooks}]"
            print(f"  {name:<{width}}  {line}".rstrip())
    return 0


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()

    if args.command == "run":
        config = _run_config(args)
        result = run_simulation(config)
        print(result)
        print(
            f"  arrivals={result.arrivals} accepted={result.accepted} "
            f"rejected={result.rejected} migrations={result.migrations} "
            f"events={result.events_fired}"
        )
        return 0

    progress = _progress(getattr(args, "quiet", False))
    if args.command == "all":
        return _run_all(args)
    if args.command == "chaos":
        return CHAOS_EXPERIMENTS.get(args.experiment).run_cli(args, progress)
    return EXPERIMENTS.get(args.command).run_cli(args, progress)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
