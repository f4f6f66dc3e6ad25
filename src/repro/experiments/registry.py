"""Self-registration of experiments (docs/ARCHITECTURE.md).

Each experiment module ends by publishing an :class:`ExperimentSpec` —
its CLI name, help text, argument hooks, runner, and optional extras (a
trace-config factory for ``repro trace``, an artifact generator for
``repro all``).  A figure (a ``run_*`` function returning a
:class:`~repro.experiments.base.SweepResult`) declares itself with
:func:`register_figure`, which builds all of those from a name, a title
and the run function; the bespoke verbs (``serve``, ``verify`` …) hand
:func:`register` a spec of their own.  The CLI builds its subcommands
*from this registry*: adding an experiment is writing one module, not
editing the CLI.

Modules are discovered automatically: importing
:mod:`repro.experiments` imports every sibling module (see the
package ``__init__``), so registration needs no hand-maintained import
list anywhere.

Two registries exist because the CLI surfaces them differently:

* :data:`EXPERIMENTS` — top-level subcommands (``repro fig4`` …).
* :data:`CHAOS_EXPERIMENTS` — modes of ``repro chaos <mode>``.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.cluster.system import (
    LARGE_SYSTEM,
    SMALL_SYSTEM,
    SYSTEMS,
    SystemConfig,
)
from repro.experiments.base import SweepResult, Variant, resolve_scale
from repro.registry import Registry, RegistryError
from repro.simulation import SimulationConfig

#: A progress callback (one line per grid point) or None when quiet.
Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class Artifact:
    """One rendered block of the ``repro all`` report.

    Attributes:
        stem: file stem for per-artifact exports (``fig4_large``).
        text: the rendered ASCII block.
        sweep: the underlying :class:`SweepResult` when the artifact is
            a sweep (exported as ``<stem>.csv`` + provenance sidecar);
            None for table-shaped artifacts.
    """

    stem: str
    text: str
    sweep: Optional[SweepResult] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the CLI needs to expose one experiment.

    Attributes:
        name: subcommand name (``"fig4"``).
        help: one-line help shown in ``repro --help``.
        run_cli: ``(args, progress) -> int`` — run the experiment from
            parsed CLI args and print its report to stdout.
        add_arguments: optional hook adding experiment-specific flags to
            the generated subparser (``--system``, ``--policies`` …).
            The common flags (``--scale``/``--seed``/``--quiet``/obs)
            are added by the CLI unless :attr:`bare` is set.
        trace_config: optional ``(system, seed, scale) ->
            SimulationConfig`` factory producing one representative
            traced run; experiments providing it appear as ``repro
            trace <name>`` choices.
        artifacts: optional ``(scale, seed, progress) -> iterable`` of
            :class:`Artifact` blocks for the ``repro all`` report;
            experiments without it are CLI-only.
        order: position of this experiment's artifacts in the ``all``
            report (ascending; ties resolve by name).
        bare: suppress the common flags (for argument-less subcommands
            like ``fig6``).
    """

    name: str
    help: str
    run_cli: Callable[[argparse.Namespace, Progress], int]
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None
    trace_config: Optional[
        Callable[[SystemConfig, int, Optional[float]], SimulationConfig]
    ] = None
    artifacts: Optional[
        Callable[[Optional[float], int, Progress], Iterable[Artifact]]
    ] = None
    order: int = 100
    bare: bool = False


#: Top-level experiment subcommands, in registration (discovery) order.
EXPERIMENTS: Registry[ExperimentSpec] = Registry("experiment")

#: Modes of the ``repro chaos`` subcommand.
CHAOS_EXPERIMENTS: Registry[ExperimentSpec] = Registry("chaos experiment")


def register(spec: ExperimentSpec, *, chaos: bool = False) -> ExperimentSpec:
    """Publish *spec* in the appropriate registry and return it."""
    target = CHAOS_EXPERIMENTS if chaos else EXPERIMENTS
    target.register(spec.name, spec, help=spec.help)
    return spec


def register_figure(
    name: str,
    help: str,
    run: Callable[..., SweepResult],
    *,
    title: str,
    stem: Optional[str] = None,
    order: int = 100,
    panels: bool = False,
    report_title: Optional[str] = None,
    trace: Optional[
        Tuple[Callable[[SystemConfig, int], SimulationConfig], Variant]
    ] = None,
    chaos: bool = False,
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None,
    options: Sequence[str] = (),
    preamble: Optional[Callable[[], str]] = None,
) -> ExperimentSpec:
    """Publish a figure: build its :class:`ExperimentSpec` from *run*.

    *run* takes ``scale`` / ``seed`` / ``progress`` keywords (plus
    ``system`` when *panels*) and returns a :class:`SweepResult`.

    Args:
        title: the table heading.  A single-system figure prints it as
            is on the CLI; a *panels* figure appends the system.
        stem: file stem of the ``repro all`` CSV (``<stem>_<system>``
            per panel); None keeps the figure out of the report.
        order: position in the ``repro all`` report.
        panels: the figure has a large- and a small-system panel —
            ``--system`` picks one on the CLI, the report draws both.
        report_title: heading in the ``repro all`` report of a
            single-system figure (default: *title* up to its colon,
            i.e. the experiment ID).
        trace: ``(base_config, variant)`` — ``repro trace <name>`` runs
            ``variant`` applied to ``base_config(system, seed)``, the
            same base the figure sweeps.
        chaos: register as a ``repro chaos <name>`` mode (whose parser
            already carries ``--system``).
        add_arguments: extra CLI flags; the parsed values named in
            *options* are passed to *run* as keywords.
        preamble: text printed above the table on the CLI.
    """

    def run_cli(args: argparse.Namespace, progress: Progress) -> int:
        kwargs = {dest: getattr(args, dest) for dest in options}
        heading = title
        if panels:
            kwargs["system"] = SYSTEMS[args.system]
            heading = f"{title} ({args.system} system)"
        try:
            result = run(
                scale=args.scale, seed=args.seed, progress=progress, **kwargs
            )
        except RegistryError as exc:
            raise SystemExit(str(exc))
        if preamble is not None:
            print(preamble())
            print()
        print(result.render(title=heading))
        return 0

    def artifacts(
        scale: Optional[float], seed: int, progress: Progress
    ) -> Iterable[Artifact]:
        if not panels:
            result = run(scale=scale, seed=seed, progress=progress)
            heading = report_title or title.partition(":")[0]
            yield Artifact(stem, result.render(title=heading), result)
            return
        for system in (LARGE_SYSTEM, SMALL_SYSTEM):
            result = run(
                system=system, scale=scale, seed=seed, progress=progress
            )
            yield Artifact(
                f"{stem}_{system.name}",
                result.render(title=f"{title} ({system.name})"),
                result,
            )

    def trace_config(
        system: SystemConfig, seed: int, scale: Optional[float]
    ) -> SimulationConfig:
        base_config, variant = trace
        exp_scale = resolve_scale(scale)
        return dataclasses.replace(
            variant.apply(base_config(system, seed)),
            duration=exp_scale.duration,
            warmup=exp_scale.warmup,
        )

    def arguments(parser: argparse.ArgumentParser) -> None:
        if panels and not chaos:
            parser.add_argument(
                "--system", default="large", choices=SYSTEMS.names()
            )
        if add_arguments is not None:
            add_arguments(parser)

    return register(
        ExperimentSpec(
            name=name,
            help=help,
            run_cli=run_cli,
            add_arguments=arguments,
            trace_config=trace_config if trace is not None else None,
            artifacts=artifacts if stem is not None else None,
            order=order,
        ),
        chaos=chaos,
    )


def trace_experiments() -> tuple:
    """Names of experiments offering a ``repro trace`` setup (sorted)."""
    return tuple(
        name
        for name in EXPERIMENTS.names()
        if EXPERIMENTS.get(name).trace_config is not None
    )

