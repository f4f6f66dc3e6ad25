"""Self-registration of experiments (docs/ARCHITECTURE.md).

Each experiment module ends by publishing an :class:`ExperimentSpec` —
its CLI name, help text, argument hooks, runner, and optional extras (a
trace-config factory for ``repro trace``, an artifact generator for
``repro all``).  A figure (a ``run_*`` function returning a
:class:`~repro.experiments.base.SweepResult`) declares itself with
:func:`register_figure`, which builds all of those from a name, a title,
the run function and the :class:`Claim` list the figure is expected to
satisfy; a definitional table (Figures 3 and 6) uses
:func:`register_table`; the bespoke verbs (``serve``, ``verify`` …) hand
:func:`register` a spec of their own.  The CLI builds its subcommands
*from this registry*: adding an experiment is writing one module, not
editing the CLI.

Modules are discovered automatically: importing
:mod:`repro.experiments` imports every sibling module (see the
package ``__init__``), so registration needs no hand-maintained import
list anywhere.  Every spec lands in :data:`EXPERIMENTS`, one
top-level subcommand each (``repro fig4`` …).
"""

from __future__ import annotations

import argparse
import dataclasses
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple

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


_COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


@dataclass(frozen=True)
class Claim:
    """One sentence a figure is expected to bear out, as data.

    Evaluated wherever the figure is drawn and printed under its table
    as ``PASS|FAIL  <name>  <measured> <op> <bound>  (<quote>)``; a
    failed claim makes the command exit 1.

    Attributes:
        name: ``<experiment ID>.<what>``; EXPERIMENTS.md cites it.
        quote: the paper's wording, or ours for an extension study.
        measure: the measured quantity, from the figure's
            :class:`SweepResult` — one argument per entry of *panels*.
        op: how the measured value must compare to *bound*.
        bound: the threshold.
        panels: the system panels *measure* reads, when the figure is
            drawn per system (empty otherwise); the claim is printed
            under the last of them to be drawn.
    """

    name: str
    quote: str
    measure: Callable[..., float]
    op: str
    bound: float
    panels: Tuple[str, ...] = ()

    def judge(
        self, results: Mapping[str, SweepResult]
    ) -> Tuple[Optional[bool], str]:
        """``(passed, report line)`` against *results* (panel name →
        result, ``""`` for a single-system figure); ``passed`` is None —
        said in the line, never a pass — when a panel or a curve the
        claim reads was not drawn."""
        skip = f"SKIP  {self.name}  not evaluated (needs %s)"
        wanted = self.panels or ("",)
        if not set(wanted) <= set(results):
            return None, skip % "both panels"
        try:
            value = self.measure(*(results[name] for name in wanted))
        except KeyError as curve:  # ``fig7 --policies P1,P4``
            return None, skip % f"curve {curve}"
        passed = bool(_COMPARE[self.op](value, self.bound))
        return passed, (
            f"{'PASS' if passed else 'FAIL'}  {self.name}  "
            f"{value:.4f} {self.op} {self.bound:g}  ({self.quote})"
        )


@dataclass(frozen=True)
class Artifact:
    """One rendered block of the ``repro all`` report.

    Attributes:
        stem: file stem for per-artifact exports (``fig4_large``).
        text: the rendered ASCII block, claim lines included.
        sweep: the underlying :class:`SweepResult` when the artifact is
            a sweep (exported as ``<stem>.csv`` + provenance sidecar);
            None for table-shaped artifacts.
        verdicts: pass/fail of each claim evaluated in *text*.
    """

    stem: str
    text: str
    sweep: Optional[SweepResult] = None
    verdicts: Tuple[bool, ...] = ()


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
        claims: a figure's :class:`Claim` list (EXPERIMENTS.md cites it).
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
    claims: Sequence[Claim] = ()
    order: int = 100
    bare: bool = False


#: Top-level experiment subcommands, in registration (discovery) order.
EXPERIMENTS: Registry[ExperimentSpec] = Registry("experiment")


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Publish *spec* in :data:`EXPERIMENTS` and return it."""
    EXPERIMENTS.register(spec.name, spec, help=spec.help)
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
    claims: Sequence[Claim] = (),
    trace: Optional[
        Tuple[Callable[[SystemConfig, int], SimulationConfig], Variant]
    ] = None,
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None,
    options: Sequence[str] = (),
    preamble: Optional[Callable[[], str]] = None,
) -> ExperimentSpec:
    """Publish a figure: build its :class:`ExperimentSpec` from *run*.

    *run* takes ``scale`` / ``seed`` / ``progress`` keywords (plus
    ``system`` when *panels*) and returns a :class:`SweepResult`.

    Args:
        title: the table heading; a *panels* figure appends the system.
        stem: file stem of the ``repro all`` CSV (``<stem>_<system>``
            per panel); None keeps the figure out of the report.
        order: position in the ``repro all`` report.
        panels: the figure has a large- and a small-system panel —
            ``--system`` picks one on the CLI, the report draws both.
        claims: what the figure is expected to show, judged under the
            table on the CLI and in ``repro all`` (see :class:`Claim`).
        trace: ``(base_config, variant)`` — ``repro trace <name>`` runs
            ``variant`` applied to ``base_config(system, seed)``, the
            same base the figure sweeps.
        add_arguments: extra CLI flags; the parsed values named in
            *options* are passed to *run* as keywords.
        preamble: text printed above the table on the CLI.
    """

    def draw(
        names: Sequence[str], scale, seed, progress, **kwargs
    ) -> Iterable[Artifact]:
        """Run, render and judge the panels *names* in order (``("",)``
        for a single-system figure)."""
        results = {}
        for panel in names:
            if panels:
                kwargs["system"] = SYSTEMS[panel]
            results[panel] = result = run(
                scale=scale, seed=seed, progress=progress, **kwargs
            )
            # A claim goes under the last table it reads; when that
            # panel is not coming (a one-panel CLI run) it says so.
            judged = [
                claim.judge(results)
                for claim in claims
                if panel in (claim.panels or ("",))
                and (panel == names[-1] or set(claim.panels) <= set(results))
            ]
            heading = f"{title} ({panel} system)" if panels else title
            yield Artifact(
                f"{stem}_{panel}" if panels else stem,
                "\n".join(
                    [result.render(title=heading)] + [line for _, line in judged]
                ),
                result,
                tuple(ok for ok, _ in judged if ok is not None),
            )

    def run_cli(args: argparse.Namespace, progress: Progress) -> int:
        kwargs = {dest: getattr(args, dest) for dest in options}
        names = (args.system,) if panels else ("",)
        try:
            (drawn,) = draw(names, args.scale, args.seed, progress, **kwargs)
        except RegistryError as exc:
            raise SystemExit(str(exc))
        if preamble is not None:
            print(preamble())
            print()
        print(drawn.text)
        return 0 if all(drawn.verdicts) else 1

    def artifacts(
        scale: Optional[float], seed: int, progress: Progress
    ) -> Iterable[Artifact]:
        names = (LARGE_SYSTEM.name, SMALL_SYSTEM.name) if panels else ("",)
        return draw(names, scale, seed, progress)

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
        if panels:
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
            claims=tuple(claims),
            order=order,
        ),
    )


def register_table(
    name: str, help: str, table: Callable[[], str], *, stem: str, order: int
) -> ExperimentSpec:
    """Publish a definitional table (Figures 3 and 6): the verb prints
    it, ``repro all`` carries it at *order*; no sweep, no flags."""

    def run_cli(args: argparse.Namespace, progress: Progress) -> int:
        print(table())
        return 0

    return register(ExperimentSpec(
        name=name, help=help, run_cli=run_cli, order=order, bare=True,
        artifacts=lambda scale, seed, progress: [Artifact(stem, table())],
    ))


def trace_experiments() -> tuple:
    """Names of experiments offering a ``repro trace`` setup (sorted)."""
    return tuple(
        name
        for name in EXPERIMENTS.names()
        if EXPERIMENTS.get(name).trace_config is not None
    )

