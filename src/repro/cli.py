"""Command-line interface: ``repro-vod`` / ``python -m repro``.

Subcommands regenerate each reproduced artifact::

    repro-vod fig4 --system large --scale 0.02
    repro-vod fig5 --system small
    repro-vod fig3 | fig6                           # the two tables
    repro-vod fig7 --system large                   # P1-P8
    repro-vod svbr | partial | het | ablation       # full-version extras
    repro-vod replication | vcr | mix | availability   # extension studies
    repro-vod all --outdir results                  # everything, CSVs, claims
    repro-vod run --system small --theta 0.3 --staging 0.2 --migrate
    repro-vod run --scenario scenarios/p4_small.json
    repro-vod verify scenarios/chaos_serve.json     # the gate (exit 1 on failure)
    repro-vod run --theta 0 --trace-out run.jsonl   # one traced run

**Every experiment subcommand is generated from the experiment
registry** (:mod:`repro.experiments.registry`): importing
:mod:`repro.experiments` auto-discovers each experiment module, whose
self-registration block publishes its CLI name, help text, flags,
runner and ``repro all`` artifacts.  Adding an experiment is writing
one module — there is no import list or dispatch table here to edit
(docs/ARCHITECTURE.md).

``--scale`` trades fidelity for speed; 1.0 is the paper's 5 trials ×
1000 h, and the default 0.01 gives 1 trial × 10 measured hours.

Observability (see docs/OBSERVABILITY.md): ``run``, ``all`` and the
figure subcommands take ``--trace-out PATH`` (append structured JSONL
trace records; ``run`` also prints the per-kind record counts) and
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
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.obs import profiler as profiling
from repro.obs.runtime import PROFILE_VAR, TRACE_OUT_VAR
from repro.placement import PLACEMENTS
from repro.scenario import load_scenario_or_exit
from repro.simulation import Simulation, SimulationConfig
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
             "default 0.01)",
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

    return parser


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
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        # Fail fast, before simulating for minutes, on an unwritable path.
        obs.check_trace_path(trace_out, flag="--trace-out")
    profile = bool(getattr(args, "profile", False))
    if profile:
        # Per-invocation report: drop whatever a previous in-process
        # call (tests) left in the aggregate.
        profiling.reset_aggregate()
    with _obs_env(trace_out, profile):
        rc = _dispatch(args)
    if profile:
        print(profiling.aggregate_report().render(), file=sys.stderr)
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
            print(f"  {name:<{width}}  {line}".rstrip())
    return 0


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()

    if args.command == "run":
        # The JSONL leaves through Simulation.finish (REPRO_TRACE_OUT);
        # holding the tracer here adds the per-kind counts to stdout.
        tracer = obs.Tracer() if args.trace_out else None
        result = Simulation(_run_config(args), tracer=tracer).run()
        print(result)
        print(
            f"  arrivals={result.arrivals} accepted={result.accepted} "
            f"rejected={result.rejected} migrations={result.migrations} "
            f"events={result.events_fired}"
        )
        if tracer is not None:
            print(tracer.summary_table())
        return 0

    progress = _progress(getattr(args, "quiet", False))
    if args.command == "all":
        return _run_all(args)
    return EXPERIMENTS.get(args.command).run_cli(args, progress)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
