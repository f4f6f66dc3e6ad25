"""Tests for the generic plugin registry and its concrete instances.

The actionable-error contract (ISSUE 4 satellite): every lookup site —
placement, scheduler, arrival process, system preset, paper policy,
experiment — must reject an unknown key with an error that names the
bad key *and* lists the valid choices, never a bare ``KeyError``.
"""

import ast
import contextlib
import dataclasses
import hashlib
import json
import pathlib
import re
import sys
import threading
from inspect import CO_OPTIMIZED
from typing import Optional

import pytest

import repro
from repro.registry import (
    DuplicateKeyError,
    Registry,
    RegistryError,
    UnknownKeyError,
)
from repro.serve.chaos import ToxicConfig
from repro.serve.config import ServeConfig
from repro.simulation import SimulationConfig

from conftest import cyclic_gc_off, left_to_gc, loop_clock, scratch_registry


class TestRegistryContract:
    def make(self):
        reg = Registry("widget")
        reg.register("b", 2, help="second")
        reg.register("a", 1, help="first")
        return reg

    def test_register_and_get(self):
        reg = self.make()
        assert reg.get("a") == 1
        assert reg["b"] == 2

    def test_decorator_form_returns_object_unchanged(self):
        reg = Registry("widget")

        @reg.register("f", help="callable entry")
        def f():
            return 42

        assert f() == 42
        assert reg.get("f") is f

    def test_duplicate_name_rejected(self):
        reg = self.make()
        with pytest.raises(DuplicateKeyError, match="widget 'a' is already"):
            reg.register("a", 3)

    def test_replace_allows_override(self):
        reg = self.make()
        reg.register("a", 3, replace=True)
        assert reg.get("a") == 3

    def test_unknown_key_error_is_actionable(self):
        reg = self.make()
        with pytest.raises(UnknownKeyError) as exc:
            reg.get("zzz")
        message = str(exc.value)
        assert "widget" in message
        assert "'zzz'" in message
        assert "a" in message and "b" in message

    def test_unknown_key_on_empty_registry(self):
        reg = Registry("widget")
        with pytest.raises(UnknownKeyError, match="no widgets registered"):
            reg.get("x")

    def test_unknown_key_error_is_keyerror_and_valueerror(self):
        # Lookup sites historically raised one or the other; both
        # caller styles must keep working.
        reg = self.make()
        with pytest.raises(KeyError):
            reg["zzz"]
        with pytest.raises(ValueError):
            reg["zzz"]
        assert issubclass(UnknownKeyError, RegistryError)

    def test_names_sorted_iteration_in_registration_order(self):
        reg = self.make()
        assert reg.names() == ("a", "b")
        assert list(reg) == ["b", "a"]
        assert reg.values() == [2, 1]

    def test_describe(self):
        reg = self.make()
        assert reg.describe() == {"b": "second", "a": "first"}

    def test_dict_surface(self):
        reg = self.make()
        assert len(reg) == 2
        assert "a" in reg and "zzz" not in reg


class TestConcreteRegistries:
    """Each pluggable family is published through a Registry."""

    def test_allocators(self):
        from repro.core.schedulers import ALLOCATORS

        assert set(ALLOCATORS.names()) >= {
            "eftf", "lftf", "proportional", "none",
        }
        with pytest.raises(UnknownKeyError, match="scheduler 'eftc'.*eftf"):
            ALLOCATORS.get("eftc")

    def test_placements(self):
        from repro.placement import PLACEMENTS

        assert set(PLACEMENTS.names()) >= {"even", "predictive", "partial"}
        with pytest.raises(UnknownKeyError, match="placement 'evne'.*even"):
            PLACEMENTS.get("evne")

    def test_arrivals(self):
        from repro.workload.arrivals import ARRIVALS

        assert set(ARRIVALS.names()) >= {"poisson", "bursty"}
        with pytest.raises(
            UnknownKeyError, match="arrival process 'uniform'.*poisson"
        ):
            ARRIVALS.get("uniform")

    def test_systems(self):
        from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM, SYSTEMS

        assert SYSTEMS.get("small") is SMALL_SYSTEM
        assert SYSTEMS.get("large") is LARGE_SYSTEM
        with pytest.raises(UnknownKeyError, match="system 'huge'.*large"):
            SYSTEMS.get("huge")

    def test_paper_policies(self):
        from repro.core.policies import PAPER_POLICIES

        # Figure 6 matrix order is preserved by iteration.
        assert list(PAPER_POLICIES) == [f"P{i}" for i in range(1, 9)]
        with pytest.raises(UnknownKeyError, match="policy 'P9'.*P1, P2"):
            PAPER_POLICIES.get("P9")

    def test_experiments_registry_populated_by_discovery(self):
        import repro.experiments  # noqa: F401 - triggers auto-registration
        from repro.experiments.registry import EXPERIMENTS

        assert set(EXPERIMENTS.names()) >= {
            "fig4", "fig5", "fig6", "fig7", "svbr", "partial", "het",
            "ablation", "replication", "vcr", "mix", "availability", "verify",
        }
        with pytest.raises(UnknownKeyError, match="experiment 'fig9'.*fig4"):
            EXPERIMENTS.get("fig9")

    def test_experiment_help_matches_spec(self):
        from repro.experiments.registry import EXPERIMENTS

        for name, help in EXPERIMENTS.describe().items():
            assert help == EXPERIMENTS.get(name).help


def _two_point_sweep(low, high):
    """A hand-made sweep result: one curve ``u`` over x ∈ {0, 1}."""
    from repro.analysis.stats import summarize
    from repro.experiments.base import SweepResult, resolve_scale

    return SweepResult(
        x_label="x",
        x_values=[0.0, 1.0],
        curves={"u": [summarize([low]), summarize([high])]},
        metric="utilization",
        scale=resolve_scale(0.0005),
    )


class TestClaims:
    """A figure's claims are evaluated wherever the figure is drawn."""

    @pytest.fixture
    def only(self, monkeypatch):
        """Register figures for one test; ``repro all`` sees only them."""
        import repro.cli as cli
        from repro.experiments.registry import EXPERIMENTS

        mine = Registry("experiment")

        def adopt(spec):
            mine.register(spec.name, spec)
            monkeypatch.setattr(cli, "EXPERIMENTS", mine)
            return spec

        with scratch_registry(EXPERIMENTS):
            yield adopt

    def test_true_and_false_claim_both_print_and_fail_the_run(
        self, only, capsys, tmp_path
    ):
        from repro.cli import main
        from repro.experiments.registry import Claim, register_figure

        rise = lambda r: r.at("u", 1.0) - r.at("u", 0.0)  # noqa: E731
        only(register_figure(
            "dummy-fig", "registered by a test",
            lambda scale, seed, progress: _two_point_sweep(0.5, 0.7),
            title="DUMMY: two points", stem="dummy",
            claims=[
                Claim("DUMMY.rises", "it rises", rise, ">", 0.1),
                Claim("DUMMY.rises_a_lot", "it soars", rise, ">", 0.5),
            ],
        ))
        assert main(["dummy-fig", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "PASS  DUMMY.rises  0.2000 > 0.1  (it rises)" in out
        assert "FAIL  DUMMY.rises_a_lot  0.2000 > 0.5  (it soars)" in out

        assert main(["all", "--quiet", "--outdir", str(tmp_path)]) == 1
        assert "claims: 1 passed, 1 failed" in capsys.readouterr().out
        report = (tmp_path / "all_artifacts.txt").read_text()
        # No timestamp: a regenerated report diffs clean.
        assert report.splitlines()[0] == (
            f"# repro {repro.__version__} | seed=0 scale=default"
        )
        assert "FAIL  DUMMY.rises_a_lot" in report
        assert report.endswith("claims: 1 passed, 1 failed\n")
        assert (tmp_path / "dummy.csv").exists()

    def test_cross_panel_claim_needs_both_panels(self, only, capsys, tmp_path):
        from repro.cli import main
        from repro.experiments.registry import Claim, register_figure

        def run(system, scale, seed, progress):
            return _two_point_sweep(0.5, 0.9 if system.name == "small" else 0.6)

        only(register_figure(
            "dummy-panels", "registered by a test", run,
            title="DUMMY", stem="dummy", panels=True,
            claims=[Claim(
                "DUMMY.small_ends_higher", "small gains more",
                lambda small, large: small.at("u", 1.0) - large.at("u", 1.0),
                ">", 0.0, panels=("small", "large"),
            )],
        ))
        # One panel: said out loud, never a silent pass; not a failure.
        for panel in ("small", "large"):
            assert main(["dummy-panels", "--system", panel, "--quiet"]) == 0
            assert (
                "SKIP  DUMMY.small_ends_higher  not evaluated "
                "(needs both panels)" in capsys.readouterr().out
            )
        # `repro all` draws both and evaluates it once, under the
        # second table.
        assert main(["all", "--quiet", "--outdir", str(tmp_path)]) == 0
        assert "claims: 1 passed, 0 failed" in capsys.readouterr().out
        report = (tmp_path / "all_artifacts.txt").read_text()
        assert report.count("DUMMY.small_ends_higher") == 1
        assert report.index("DUMMY (small system)") < report.index("PASS  DUMMY.")

    @pytest.mark.parametrize("measure, why", [
        (lambda r: r.at("u", 1.0) / (r.at("u", 0.0) - 0.5), "division by zero"),
        (lambda r: float("nan"), "measured nan"),
    ], ids=["zero-divisor", "nan"])
    def test_an_uncomputable_claim_fails_with_its_reason(
        self, only, capsys, tmp_path, measure, why
    ):
        from repro.cli import main
        from repro.experiments.registry import Claim, register_figure

        only(register_figure(
            "dummy-fig", "registered by a test",
            lambda scale, seed, progress: _two_point_sweep(0.5, 0.7),
            title="DUMMY: two points", stem="dummy",
            claims=[Claim("DUMMY.ratio", "a ratio", measure, ">", 0.0)],
        ))
        assert main(["dummy-fig", "--quiet"]) == 1
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if "DUMMY.ratio" in line
        ]
        assert line.startswith("FAIL  DUMMY.ratio  ") and why in line
        assert line.endswith("(a ratio)")
        assert main(["all", "--quiet", "--outdir", str(tmp_path)]) == 1
        assert "claims: 0 passed, 1 failed" in capsys.readouterr().out

    def test_near_full_fails_when_a_full_buffer_gains_nothing(self):
        from repro.analysis.stats import summarize
        from repro.experiments.base import SweepResult, resolve_scale
        from repro.experiments.registry import EXPERIMENTS

        (claim,) = [
            claim for claim in EXPERIMENTS.get("fig5").claims
            if claim.name == "FIG5.twenty_percent_near_full.small"
        ]
        flat = SweepResult(
            x_label="theta",
            x_values=[0.0],
            curves={
                name: [summarize([0.5])]
                for name in ("0% buffer", "20% buffer", "100% buffer")
            },
            metric="utilization",
            scale=resolve_scale(0.0005),
        )
        passed, line = claim.judge({"small": flat})
        assert passed is False
        assert "full-buffer gain 0.0000 is not positive" in line

    def test_every_figure_in_the_report_declares_claims(self):
        from repro.experiments.registry import EXPERIMENTS

        root = pathlib.Path(__file__).resolve().parent.parent
        index = set(re.findall(
            r"^\| ([A-Z0-9-]+) \|", (root / "DESIGN.md").read_text(), re.M
        ))
        assert {"FIG4", "EXT-SVBR"} <= index  # the scan finds §3's table
        names = []
        for spec in EXPERIMENTS.values():
            if spec.artifacts is None or spec.name in ("fig3", "fig6"):
                assert not spec.claims  # CLI-only verbs, the two tables
                continue
            assert spec.claims, f"{spec.name} is in the report, claims nothing"
            # One experiment ID per figure, and it is in DESIGN.md §3.
            ids = {claim.name.partition(".")[0] for claim in spec.claims}
            assert len(ids) == 1 and ids <= index, (spec.name, ids)
            names += [claim.name for claim in spec.claims]
        assert len(names) == len(set(names))

    def test_experiments_md_cites_exactly_the_registered_claims(self):
        from repro.experiments.registry import EXPERIMENTS

        root = pathlib.Path(__file__).resolve().parent.parent
        cited = set(re.findall(
            r"`((?:FIG\d|EXT-[A-Z]+)\.[a-z0-9_.]+)`",
            (root / "EXPERIMENTS.md").read_text(),
        ))
        registered = {
            claim.name
            for spec in EXPERIMENTS.values() for claim in spec.claims
        }
        assert registered - cited == set(), "claims EXPERIMENTS.md omits"
        assert cited - registered == set(), "EXPERIMENTS.md cites unregistered"


class TestDocumentedKnobsExist:
    def test_every_documented_env_var_is_read_by_the_code(self):
        # A knob that is deleted from the code must leave the docs' knob
        # tables too.  "Read by the code" = the name occurs as a string
        # literal (comments and docstrings do not count) under
        # src/repro.
        root = pathlib.Path(__file__).resolve().parent.parent
        docs = [root / "README.md", root / "DESIGN.md"]
        docs += sorted((root / "docs").glob("*.md"))
        documented = {
            name: doc.name
            for doc in docs
            for name in re.findall(r"REPRO_[A-Z_]+", doc.read_text())
        }
        assert "REPRO_WORKERS" in documented  # the scan finds the tables
        read = set()
        for source in (root / "src/repro").rglob("*.py"):
            read.update(
                re.findall(r"""["'](REPRO_[A-Z_]+)["']""", source.read_text())
            )
        stale = {n: d for n, d in documented.items() if n not in read}
        assert not stale, f"documented but read nowhere: {stale}"


class TestServeImportGraph:
    def test_pacing_reaches_neither_gateway_nor_telemetry(self):
        # docs/ARCHITECTURE.md, "The live gateway": the data servers
        # (and everything under repro.serve they import) never import
        # the distribution controller or its self-description.
        serve = pathlib.Path(__file__).resolve().parent.parent / (
            "src/repro/serve"
        )

        def imports(module):
            found = set()
            for node in ast.walk(ast.parse((serve / f"{module}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    if node.module == "repro.serve":
                        found.update(alias.name for alias in node.names)
                    elif node.module.startswith("repro.serve."):
                        found.add(node.module.split(".")[2])
                elif isinstance(node, ast.Import):
                    found.update(
                        alias.name.split(".")[2] for alias in node.names
                        if alias.name.startswith("repro.serve.")
                    )
            return {name for name in found if (serve / f"{name}.py").exists()}

        reached, frontier = set(), {"pacing"}
        while frontier:
            module = frontier.pop()
            reached.add(module)
            frontier |= imports(module) - reached
        assert {"bridge", "protocol"} <= reached  # the scan follows imports
        assert not reached & {"gateway", "telemetry", "ops", "chaos"}


def _documented_texts():
    """``(name, text)`` of every document that quotes commands: the docs,
    CI, and each committed scenario's ``description``."""
    import json

    root = pathlib.Path(__file__).resolve().parent.parent
    docs = [root / name for name in (
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "scenarios/README.md", ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    )]
    docs += sorted((root / "docs").glob("*.md"))
    texts = [(doc.name, doc.read_text()) for doc in docs]
    texts += [
        (path.name, json.loads(path.read_text())["description"])
        for path in sorted((root / "scenarios").glob("*.json"))
    ]
    return texts


class TestDocumentedCommandsExist:
    def test_every_documented_verb_is_a_subcommand(self):
        # A verb that is deleted from the CLI must leave the docs, CI and
        # the scenario descriptions too.  ``repro-vod X`` and ``python -m
        # repro X`` count anywhere; the bare ``repro X`` spelling only
        # where it is quoted as a command (after a backtick, a ``$``
        # prompt or a double quote), so prose such as "from repro
        # import" does not.
        from repro.cli import build_parser

        pattern = re.compile(
            r'(?:repro-vod|python3? -m repro|(?:`|\$ |")repro)[ \t]+([a-z][\w-]*)'
        )
        documented = {
            verb: name
            for name, text in _documented_texts()
            for verb in pattern.findall(text)
        }
        # The scan finds the examples, scenario descriptions included.
        assert {"run", "prefix"} <= set(documented)
        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        stale = {
            verb: name for verb, name in documented.items()
            if verb not in subparsers.choices
        }
        assert not stale, f"documented but not a subcommand: {stale}"

    def test_every_ci_job_mentioned_is_a_job(self):
        # "CI serve-smoke", "CI's `verify` job": a job that is deleted
        # from the workflow must leave the docs and scenarios too.
        root = pathlib.Path(__file__).resolve().parent.parent
        workflow = (root / ".github/workflows/ci.yml").read_text()
        jobs = set(re.findall(
            r"^  ([\w-]+):$", workflow.partition("\njobs:\n")[2], re.M
        ))
        assert {"test", "verify", "serve-smoke"} <= jobs
        pattern = re.compile(r"\bCI(?:'s)? (?:`([\w-]+)`|([a-z]+(?:-[a-z]+)+))")
        mentioned = {
            quoted or bare: name
            for name, text in _documented_texts()
            for quoted, bare in pattern.findall(text)
        }
        assert {"serve-smoke", "verify"} <= set(mentioned)
        stale = {job: name for job, name in mentioned.items() if job not in jobs}
        assert not stale, f"mentioned but not a CI job: {stale}"


class TestDocumentedPathsExist:
    def test_every_cited_module_and_file_exists(self):
        # A module, test file or scenario that is deleted must
        # leave the docs too.  Scanned inside back-ticks only: dotted
        # ``repro.x.y`` names (the longest importable prefix, then
        # attributes) and ``dir/…/file.py|json`` paths, which may be
        # relative to the repo root, ``src/`` or ``src/repro/``.
        import importlib

        root = pathlib.Path(__file__).resolve().parent.parent
        docs = [root / name for name in (
            "README.md", "DESIGN.md", "EXPERIMENTS.md", "scenarios/README.md",
        )]
        docs += sorted((root / "docs").glob("*.md"))
        path = re.compile(r"(?<![\w./-])((?:[\w.-]+/)+[\w.-]+\.(?:py|json))")
        dotted = re.compile(r"(?<![\w./-])(repro(?:\.[A-Za-z_]\w*)+)")

        def resolves(name):
            parts = name.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    found = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                for attr in parts[cut:]:
                    if not hasattr(found, attr):
                        return False
                    found = getattr(found, attr)
                return True
            return False

        cited, stale = set(), {}
        for doc in docs:
            for quoted in re.findall(r"`([^`\n]+)`", doc.read_text()):
                for name in path.findall(quoted):
                    cited.add(name)
                    if not any(
                        (base / name).exists()
                        for base in (root, root / "src", root / "src/repro")
                    ):
                        stale[name] = doc.name
                for name in dotted.findall(quoted):
                    cited.add(name)
                    if not resolves(name):
                        stale[name] = doc.name
        # The scan finds each of the four kinds.
        assert {
            "repro.core.migration", "core/transmission.py",
            "tests/test_migration.py", "scenarios/serve_loopback.json",
        } <= cited
        assert not stale, f"cited in the docs but gone: {stale}"


def _selects(config):
    """``(repro list section, key)`` for every registry entry *config*
    selects — a preset or a paper policy by equal value."""
    from repro.cluster.system import SYSTEMS
    from repro.core.policies import PAPER_POLICIES

    yield "allocators", config.scheduler
    yield "placements", config.placement
    yield "arrivals", config.arrivals
    for name in SYSTEMS:
        if SYSTEMS[name] == config.system:
            yield "systems", name
    for name in PAPER_POLICIES:
        policy = PAPER_POLICIES[name]
        if (policy.placement, policy.migration_policy(), policy.staging_fraction) == (
            config.placement, config.migration, config.staging_fraction
        ):
            yield "paper policies", name
    if config.elastic is not None:
        yield "scale triggers", config.elastic.trigger
        yield "replica warmers", config.elastic.warmer
    if config.prefix is not None:
        yield "prefix strategies", config.prefix.strategy
        yield "batching policies", config.prefix.batching


def _code_lines(code):
    """The lines of *code* a line event can report: its line table less
    a ``def``'s first line (its first decorator's), which only the
    entry instruction carries."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    if not code.co_name.startswith("<"):  # not a lambda or comprehension
        lines.discard(code.co_firstlineno)
    return lines


class _Entered:
    """What ran while an :func:`_entering` block ran: ``codes``, the code
    object of every Python function entered, and ``pending``, for each
    entered ``src/repro`` function's code, the lines of
    :func:`_code_lines` it has not run yet."""

    def __init__(self):
        self.codes = set()
        self.pending = {}

    def lines(self):
        """``(ran, unrun)``: ``{(file, line)}`` of the ``pending`` code's
        lines that ran, and of those that did not."""
        ran, unrun = set(), set()
        for code, pending in self.pending.items():
            path = str(pathlib.Path(code.co_filename).resolve())
            ran.update((path, line) for line in _code_lines(code) - pending)
            unrun.update((path, line) for line in pending)
        return ran, unrun


@contextlib.contextmanager
def _entering(package=None):
    """Record, in any thread, what runs while the block runs, as an
    :class:`_Entered`.  Only the functions under *package* (default
    ``src/repro``) are traced line by line, each until every line it
    has has run."""
    package = str(package or TestEveryFunctionIsReached.package())
    entered, inside, tracers = _Entered(), {}, {}

    def tracer(code):
        name = code.co_filename
        if name not in inside:
            inside[name] = str(pathlib.Path(name).resolve()).startswith(package)
        if not (inside[name] and code.co_flags & CO_OPTIMIZED):
            return None  # outside, or a module or class body
        pending = entered.pending[code] = _code_lines(code)

        def line(frame, event, arg):
            if event == "line":
                pending.discard(frame.f_lineno)
                if not pending:  # every line has run: stop tracing it
                    tracers[code] = None
                    return None
            return line

        return line if pending else None

    def call(frame, event, arg):
        code = frame.f_code
        entered.codes.add(code)
        try:
            return tracers[code]
        except KeyError:
            local = tracers[code] = tracer(code)
            return local

    previous = sys.gettrace()
    sys.settrace(call)
    threading.settrace(call)
    try:
        yield entered
    finally:
        threading.settrace(None)
        sys.settrace(previous)


def _committed_configs(root):
    """The config of each committed scenario and ledger workload, by
    file."""
    import json

    from repro.scenario import load_scenario

    configs = {
        f"scenarios/{path.name}": load_scenario(path).config
        for path in sorted((root / "scenarios").glob("*.json"))
    }
    for path in sorted((root / "bench/workloads").glob("*.json")):
        raw = json.loads(path.read_text())
        if "config" in raw:
            configs[f"bench/workloads/{path.name}"] = (
                SimulationConfig.from_dict(raw["config"])
            )
    return configs


@pytest.fixture(scope="module")
def _workloads():
    """``(configs, entered)``: every config a figure with claims, a
    committed scenario or a ledger workload runs — the figures' cells
    recorded as they are built (one trial, one simulated minute each,
    in-process) — and what ran while the cells ran (:class:`_Entered`)."""
    from repro.experiments import base
    from repro.experiments.registry import EXPERIMENTS

    root = pathlib.Path(__file__).resolve().parent.parent
    configs = []
    real = base._run_one

    def record(config):
        configs.append(config)
        return real(dataclasses.replace(config, duration=60.0, warmup=0.0))

    with pytest.MonkeyPatch.context() as patch, _entering() as entered:
        patch.setenv("REPRO_WORKERS", "1")
        patch.setattr(base, "_run_one", record)
        for spec in EXPERIMENTS.values():
            if spec.claims:
                list(spec.artifacts(0.0005, 0, None))
    assert configs  # the patch reached the sweeps
    return configs + list(_committed_configs(root).values()), entered


@pytest.fixture(scope="module")
def workload_configs(_workloads):
    """Every config a figure with claims, a committed scenario or a
    ledger workload runs."""
    return _workloads[0]


class TestEveryKeyIsReached:
    """An alternative that never runs on a workload we run is a defect
    (ROADMAP): every key of every registry ``repro list`` prints, bar
    the experiment verbs, is selected by a figure with claims, a
    committed scenario or a ledger workload."""

    #: Off-switches kept with no workload selecting them.
    ALLOWED = {
        ("replica warmers", "none"):
            "the off-switch: a joiner activates with an empty disk",
        ("prefix strategies", "none"):
            "the off-switch: the tier watches traffic and caches nothing",
        ("batching policies", "none"):
            "the only batching the live gateway serves",
    }

    @staticmethod
    def listed(capsys):
        """``{(section, key)}`` as ``repro list`` prints them."""
        from repro.cli import main

        assert main(["list"]) == 0
        keys, section = set(), None
        for line in capsys.readouterr().out.splitlines():
            heading = re.match(r"^(\S.*) \(\d+\):$", line)
            if heading:
                section = heading.group(1)
            elif line.startswith("  ") and section != "experiments":
                keys.add((section, line.split()[0]))
        return keys

    def unreached(self, capsys, configs):
        reached = {key for config in configs for key in _selects(config)}
        return self.listed(capsys) - reached - set(self.ALLOWED)

    def test_every_listed_key_is_reached(self, capsys, workload_configs):
        listed = self.listed(capsys)
        assert ("placements", "even") in listed  # the scan reads the listing
        assert set(self.ALLOWED) <= listed
        unreached = self.unreached(capsys, workload_configs)
        assert not unreached, (
            f"registered, but no figure with claims, scenario or ledger "
            f"workload selects it: {sorted(unreached)}"
        )

    def test_an_unused_key_is_caught(self, capsys, workload_configs):
        from repro.core.schedulers import ALLOCATORS

        with scratch_registry(ALLOCATORS):
            ALLOCATORS.register("idle-twin", ALLOCATORS.get("none"), help="unused")
            unreached = self.unreached(capsys, workload_configs)
        assert unreached == {("allocators", "idle-twin")}


def _config_classes(root):
    """*root* and every config dataclass its type hints reach, walked
    from the hints rather than from instances, so a sub-config that no
    workload builds is still listed."""
    import typing

    def leaves(hint):
        args = typing.get_args(hint)
        return [leaf for arg in args for leaf in leaves(arg)] if args else [hint]

    found, frontier = [], [root]
    while frontier:
        cls = frontier.pop()
        if cls in found:
            continue
        found.append(cls)
        for hint in typing.get_type_hints(cls).values():
            frontier += [t for t in leaves(hint) if dataclasses.is_dataclass(t)]
    return found


def _settings(value, seen):
    """Add ``(Class.field, value)`` for every field of the config
    *value* and of each config nested in it to *seen*."""
    for field in dataclasses.fields(value):
        setting = getattr(value, field.name)
        seen.setdefault(f"{type(value).__name__}.{field.name}", []).append(setting)
        for nested in setting if isinstance(setting, tuple) else (setting,):
            if dataclasses.is_dataclass(nested):
                _settings(nested, seen)


@dataclasses.dataclass(frozen=True)
class _IdleKnob:
    """A sub-config nothing builds (``test_an_unused_field_is_caught``)."""

    level: int = 0


@dataclasses.dataclass(frozen=True)
class _Planted:
    config: SimulationConfig
    knob: Optional[_IdleKnob] = None


@dataclasses.dataclass(frozen=True)
class _PlantedLive:
    """The live roots plus a wall-clock knob nothing sets
    (``test_an_unused_live_field_is_caught``)."""

    serve: ServeConfig
    toxic: ToxicConfig
    tick: float = 0.05


@pytest.fixture(scope="module")
def knob_configs(workload_configs):
    """Every config a workload we run builds: :func:`workload_configs`,
    ``repro verify``'s :data:`LIVE_SERVE` and :data:`STRESS` (its retry
    policy and gateway toxic), and the ``serve`` block of every ``live``
    ledger workload."""
    from repro.experiments.verify import LIVE_SERVE, STRESS

    root = pathlib.Path(__file__).resolve().parent.parent
    raws = [
        json.loads(path.read_text())
        for path in sorted((root / "bench/workloads").glob("*.json"))
    ]
    live = [ServeConfig.from_dict(r["serve"]) for r in raws if r["kind"] == "live"]
    assert live  # the scan reads the ledger
    return [
        *workload_configs, STRESS["retry"], STRESS["gateway_toxic"],
        LIVE_SERVE, *live,
    ]


#: Reasons shared by rows of :attr:`TestEveryFieldIsReached.ALLOWED`
#: and :attr:`TestEveryLineIsReached.ALLOWED`.
_STALL = (
    "the toxic stall, the only way to drive the gateway's send-timeout "
    "and bounded-retry path, which is safety code (tests/"
    "test_chaos_serve.py::TestGatewayTimeouts)"
)
_CUT = (
    "the toxic mid-frame cut, the only way to hand a peer a partial "
    "frame (tests/test_chaos_serve.py::TestToxicTransports)"
)


class TestEveryFieldIsReached:
    """A settable value is a cost (ROADMAP): every defaulted field of
    every config :class:`SimulationConfig` reaches, and of the live
    side's :class:`ServeConfig` and :class:`ToxicConfig`, is set off its
    default by a figure with claims, a committed scenario, a ledger
    workload (its ``serve`` block too) or ``repro verify``'s
    :data:`LIVE_SERVE` and :data:`STRESS`."""

    ROOTS = (SimulationConfig, ServeConfig, ToxicConfig)

    #: Fields kept with nothing setting them, one reason each.
    ALLOWED = {
        "ElasticPolicy.drain_interval":
            "written at its default by bench/workloads/chaos_elastic_churn.json",
        "ElasticPolicy.warm_fraction":
            "written at its default by bench/workloads/chaos_elastic_churn.json",
        "ElasticPolicy.warmer":
            "written at its default by bench/workloads/chaos_elastic_churn.json",
        "RetryPolicy.max_attempts":
            "written at its default by bench/workloads/chaos_elastic_churn.json",
        "CalibrationConfig.trials":
            "written at its default by bench/workloads/chaos_elastic_churn.json",
        "PrefixPolicy.strategy":
            "written at its default by bench/workloads/prefix_zipf_overload.json",
        "SystemConfig.view_bandwidth":
            "written at its default by bench/workloads/live_loopback.json "
            "and prefix_zipf_overload.json",
        "SimulationConfig.client_receive_bandwidth":
            "written at its default by bench/workloads/live_loopback.json "
            "and prefix_zipf_overload.json",
        "ServeConfig.host":
            "a deployment address (`repro serve` / `repro loadgen "
            "--host`); every workload serves on loopback",
        "ServeConfig.port":
            "a deployment address (`repro serve --port`); every "
            "in-process gateway binds an ephemeral port, and a load "
            "generator is given the port its gateway bound",
        "ServeConfig.ops_port":
            "`repro serve --ops-port`; the ledger's gateway passes None "
            "(bench/runners.py) and the verify legs' ops endpoint, "
            "scraped by the function rule, binds an ephemeral port",
        "ToxicConfig.stall_every": _STALL,
        "ToxicConfig.stall_seconds": _STALL,
        "ToxicConfig.cut_after_bytes": _CUT,
    }

    @staticmethod
    def defaulted(*roots):
        """``{Class.field: default}`` for every field with a default."""
        out = {}
        for cls in {cls for root in roots for cls in _config_classes(root)}:
            for field in dataclasses.fields(cls):
                if field.default is not dataclasses.MISSING:
                    out[f"{cls.__name__}.{field.name}"] = field.default
                elif field.default_factory is not dataclasses.MISSING:
                    out[f"{cls.__name__}.{field.name}"] = field.default_factory()
        return out

    def unset(self, roots, configs):
        """Defaulted fields no recorded value sets off their default."""
        seen = {}
        for config in configs:
            _settings(config, seen)
        return {
            name for name, default in self.defaulted(*roots).items()
            if all(value == default for value in seen.get(name, ()))
        }

    def test_every_defaulted_field_is_reached(self, knob_configs):
        listed = self.defaulted(*self.ROOTS)
        # The walk reaches the nested configs, built by a workload or not.
        assert {
            "SimulationConfig.theta", "CrashFaults.correlation",
            "ScaleEvent.server_id", "PrefixPolicy.batching",
            "ServeConfig.guard", "ToxicConfig.latency",
        } <= set(listed)
        unreached = self.unset(self.ROOTS, knob_configs) - set(self.ALLOWED)
        assert not unreached, (
            f"settable, but no figure with claims, scenario, ledger "
            f"workload, LIVE_SERVE or STRESS sets it off its default: "
            f"{sorted(unreached)}"
        )

    def test_every_allowed_field_is_unset(self, knob_configs):
        # A row whose field a workload now sets has no reason left.
        stale = set(self.ALLOWED) - self.unset(self.ROOTS, knob_configs)
        assert not stale, f"allowed, but not an unset field: {sorted(stale)}"

    def test_an_unused_field_is_caught(self, knob_configs):
        unreached = self.unset([_Planted], knob_configs) - set(self.ALLOWED)
        assert unreached == {"_Planted.knob", "_IdleKnob.level"}

    def test_an_unused_live_field_is_caught(self, knob_configs):
        unreached = self.unset([_PlantedLive], knob_configs) - set(
            self.ALLOWED
        )
        assert unreached == {"_PlantedLive.tick"}

    def test_every_row_has_a_reason(self):
        assert all(
            isinstance(reason, str) and reason.strip()
            for reason in self.ALLOWED.values()
        )


def _is_stub(node):
    """A ``Protocol`` or abstract method: its body is only a docstring,
    ``...`` or ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    only = body[0]
    if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant):
        return only.value.value is Ellipsis
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _functions(package):
    """``{(file, first line): "module/path.py::Qual.name"}`` for every
    ``def`` under *package* that is not exempt by rule: dunders and
    stubs.  The first line is the first decorator's, as in the
    function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (
                    (name.startswith("__") and name.endswith("__"))
                    or _is_stub(child)
                ):
                    line = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    where = path.relative_to(package).as_posix()
                    found[(str(path), line)] = f"{where}::{prefix}{name}"
                visit(child, path, f"{prefix}{name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _result_digest(result):
    """Digest of every field ``SimulationResult.__eq__`` compares."""
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result) if f.compare
    }
    fields["config"] = fields["config"].to_dict()
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _trace_digest(tracer, scratch):
    """Digest of the JSONL *tracer* exports, ``run.meta`` left out.  The
    export runs with :func:`_entering`'s recorder paused: under it, it
    added about 5 s to the capped runs, and ``_reach`` enters the export
    path in its own traced runs."""
    path = pathlib.Path(scratch) / "trace.jsonl"
    previous = sys.gettrace()
    sys.settrace(None)
    try:
        tracer.export_jsonl(path)
    finally:
        sys.settrace(previous)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _capped_runs(root):
    """``(reached, left, digests, retraced)``: :func:`_reached` of what
    ran while each committed scenario and ledger config ran traced for
    at most two simulated hours (a config listed twice, the traced
    ledger twin, runs once); by file, the ``repro``
    objects any of those runs left to the cyclic collector once dropped
    (none: a finished run frees itself); by file, each run's behaviour
    digests (``result``, ``decisions`` and ``trace``, as
    tests/golden/behaviour.json holds them); and the files whose
    ``arrival_trace`` is not the ``(time, video)`` sequence their run
    decided (none)."""
    import tempfile

    from repro.obs import Tracer
    from repro.serve.bridge import PolicyBridge
    from repro.serve.loadgen import arrival_trace

    runs, left, digests, retraced = {}, {}, {}, []
    with tempfile.TemporaryDirectory() as scratch, cyclic_gc_off(), \
            _entering() as entered:
        for name, config in _committed_configs(root).items():
            runs.setdefault(config, name)
        for config, name in runs.items():
            duration = min(config.duration, 7200.0)
            config = dataclasses.replace(
                config, duration=duration,
                warmup=min(config.warmup, duration / 2),
            )
            bridge = PolicyBridge(config, tracer=Tracer())
            trace = [(spec.time, spec.video_id) for spec in arrival_trace(bridge)]
            digests[name] = {
                "result": _result_digest(bridge.run()),
                "decisions": bridge.finalize()["decisions_sha"],
                "trace": _trace_digest(bridge.tracer, scratch),
            }
            if [(d.time, d.video) for d in bridge.decisions] != trace:
                retraced.append(name)
            del bridge
            leftover = left_to_gc()
            if leftover:
                left[name] = leftover
    return _reached(entered), left, digests, retraced


def _keys(codes):
    """``{(file, first line)}`` of the code objects in *codes*."""
    files = {
        name: str(pathlib.Path(name).resolve())
        for name in {code.co_filename for code in codes}
    }
    return {(files[code.co_filename], code.co_firstlineno) for code in codes}


def _reached(entered):
    """The :class:`_Entered` *entered* as JSON-ready lists: ``entered``,
    the :func:`_keys` of its functions, and ``ran`` and ``unrun``, its
    :meth:`_Entered.lines`."""
    ran, unrun = entered.lines()
    return {
        "entered": sorted(_keys(entered.codes)),
        "ran": sorted(ran), "unrun": sorted(unrun),
    }


def _examples(root):
    """:func:`_reached` of what ran while each ``examples/*.py`` ran its
    ``main()``, output discarded — all but
    ``serve_loopback.py``, a live run whose path the ``serve_loopback``
    verify of ``_reach`` enters, and ``capacity_planning.py``, ~7 s
    under the recorder (tests/test_examples.py runs it).  An example
    that raises exits the process naming it."""
    import importlib.util
    import io

    with _entering() as entered:
        for path in sorted((root / "examples").glob("*.py")):
            if path.name in ("serve_loopback.py", "capacity_planning.py"):
                continue
            spec = importlib.util.spec_from_file_location(path.stem, path)
            module = importlib.util.module_from_spec(spec)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    spec.loader.exec_module(module)
                    module.main()
            except Exception as exc:
                raise SystemExit(f"examples/{path.name} raised {exc!r}")
    return _reached(entered)


def _scrape(seen):
    """A ``run_chaos_serve`` probe: once a session span has closed, ask
    the gateway every ops verb through ``repro ops``, parse the
    Prometheus text, render one ``repro top`` frame, and keep the leg's
    tracer in *seen* for ``repro top --trace``.  Every verb must get
    exactly one reply: ``ops.reply``, or ``ops.error`` for ``chaos``
    (no chaos plane is armed).  The CLI calls run in executor threads,
    on wall loops of their own, and ask nothing that depends on how far
    the loop-clock gateway has got."""
    import asyncio

    from repro.cli import main
    from repro.obs import parse_prometheus
    from repro.serve.ops import OPS_VERBS

    def cli(*argv):
        try:
            return main(list(argv))
        except SystemExit as exc:  # `ops chaos`'s error path
            return str(exc)

    async def probe(gateway):
        loop = asyncio.get_running_loop()
        port, answer, replies = str(gateway.ops_port), gateway.ops._answer, []

        def answered(query):
            header, payload = answer(query)
            replies.append((query.get("verb"), header["type"], payload))
            return header, payload

        gateway.ops._answer = answered
        while not gateway.spans.recent(1):
            assert gateway.bridge.now < gateway.config.duration, (
                "no session span closed"
            )
            await asyncio.sleep(0.05)
        for verb in OPS_VERBS:
            await loop.run_in_executor(None, cli, "ops", "--port", port, verb)
        assert [reply[:2] for reply in replies] == [
            (verb, "ops.error" if verb == "chaos" else "ops.reply")
            for verb in OPS_VERBS
        ], "an ops verb went unscraped"
        text = replies[OPS_VERBS.index("prometheus")][2].decode("utf-8")
        assert any(
            name.startswith("repro_serve_") for name in parse_prometheus(text)
        ), text
        top = ("top", "--port", port, "--frames", "1")
        assert await loop.run_in_executor(None, cli, *top) == 0
        seen["tracer"] = gateway.tracer

    return probe


@pytest.fixture(scope="module")
def _reach(_workloads, tmp_path_factory):
    """``(entered, runs, lines)``: ``{(file, first line)}`` of every
    function entered while each workload we run runs — the figure cells
    (recorded by ``_workloads``), :func:`_capped_runs` under the
    invariant checker, the examples (:func:`_examples`), five cheap CLI
    verbs, two ``verify`` runs with live legs on the loop clock —
    ``serve_loopback`` through the ``repro verify`` verb (its progress
    lines included), scraped by every ``repro ops`` verb and ``repro
    top`` source (:func:`_scrape`), and ``chaos_serve``, the chaos
    plane — and the virtual-only ``verify`` of ``prefix_zipf_overload``,
    the prefix check, then ``repro top --trace`` of the scraped leg, a
    final frame and the ``--follow`` flip-book — the rest of what
    :func:`_capped_runs` returns, by name (``left``, ``digests``,
    ``retraced``), and ``(ran, unrun)``, the ``{(file, line)}`` that ran
    in the functions entered and those that never did.  The capped runs
    and the examples go to child processes (this file run as a script)
    while the verify runs go here."""
    import functools
    import io
    import json
    import os
    import subprocess

    from repro.cli import main
    from repro.experiments import verify as gate
    from repro.scenario import load_scenario
    from repro.serve.chaos import run_chaos_serve

    root = pathlib.Path(__file__).resolve().parent.parent
    scratch = tmp_path_factory.mktemp("reach")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_WORKERS="1")
    env.pop("REPRO_INVARIANTS", None)
    capped = subprocess.Popen(
        [sys.executable, __file__], env=dict(env, REPRO_INVARIANTS="1"),
        stdout=subprocess.PIPE, text=True,
    )
    examples = subprocess.Popen(
        [sys.executable, __file__, "examples"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    sink, seen = io.StringIO(), {}
    try:
        with contextlib.ExitStack() as stack:
            patch = stack.enter_context(pytest.MonkeyPatch.context())
            patch.setenv("REPRO_WORKERS", "1")
            patch.setenv("REPRO_INVARIANTS", "1")
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            stack.enter_context(loop_clock())
            entered = stack.enter_context(_entering())
            for argv in (["list"], ["fig3"], ["fig6"], [
                "run", "--scenario", str(root / "scenarios/p4_small.json"),
                "--trace-out", str(scratch / "trace.jsonl"), "--profile",
            ], [
                "run", "--system", "small", "--theta", "0", "--hours", "1",
                "--warmup-hours", "0",
            ]):
                assert main(argv) == 0, argv
            with pytest.MonkeyPatch.context() as scraped:
                scraped.setattr(gate, "run_chaos_serve", functools.partial(
                    run_chaos_serve, probe=_scrape(seen),
                ))
                assert main([
                    "verify", str(root / "scenarios/serve_loopback.json"),
                    "--postmortem", str(scratch / "postmortem.jsonl"),
                ]) == 0
            gate.verify(
                load_scenario(root / "scenarios/chaos_serve.json"),
                postmortem=scratch / "chaos_postmortem.jsonl",
            )
            gate.verify(
                load_scenario(root / "scenarios/prefix_zipf_overload.json")
            )
            trace = str(scratch / "serve.jsonl")
            seen["tracer"].export_jsonl(trace)
            assert main(["top", "--trace", trace]) == 0
            follow = ["top", "--trace", trace, "--follow", "--interval", "0"]
            assert main(follow) == 0
    finally:  # never leave a child running
        capped_out, _ = capped.communicate()
        examples_out, examples_err = examples.communicate()
    assert capped.returncode == 0, "the capped runs failed"
    assert examples.returncode == 0, examples_err[-2000:]
    runs = json.loads(capped_out)
    parts = (runs, json.loads(examples_out), _reached(_workloads[1]), _reached(entered))

    def union(field):
        return {tuple(key) for part in parts for key in part[field]}

    return union("entered"), runs, (union("ran"), union("unrun"))


@pytest.fixture(scope="module")
def unreached_functions(_reach):
    """Names of the ``def``s in ``src/repro`` no workload entered."""
    return TestEveryFunctionIsReached.unreached(
        TestEveryFunctionIsReached.package(), _reach[0]
    )


#: A module for ``test_an_unused_function_is_caught``: ``idle`` is the
#: one def that is neither entered nor exempt (a dunder or a stub);
#: ``cached`` is keyed by its decorator's line.
_PLANTED = """
import functools


@functools.lru_cache(maxsize=None)
def cached():
    return 1


def used():
    return cached() + Kind().value()


def idle():
    return 2


class Kind:
    def __repr__(self):
        return "kind"

    def value(self):
        return 3

    def stub(self):
        \"\"\"An abstract hook.\"\"\"
        raise NotImplementedError
"""


#: Reasons shared by rows of :attr:`TestEveryFunctionIsReached.ALLOWED`.
_IMPORT = "runs at import time, before the profile starts (registration)"
_PROCESS = (
    "the `repro serve` / `repro loadgen` processes: their verbs, signal "
    "handlers and progress lines (CI serve-smoke; tests/test_serve.py)"
)
_CACHE_PANEL = (
    "the cache panel of `repro top` / `ops health`; cache-only serving is "
    "a supported mode no committed live scenario runs (ROADMAP item 9(b); "
    "tests/test_prefix.py)"
)
_POOL = "the REPRO_WORKERS > 1 pool path (tests/test_parallel_sweep.py, CI artifacts)"
_BENCH = (
    "a `bench/run.py` workload calls it (BENCHMARK.json; CI ledger-smoke); "
    "the test does not run the ledger"
)
_RAISE = (
    "a failure path, run only when a check fails (tests/test_faults.py, "
    "tests/test_chaos_serve.py, tests/test_verify.py)"
)
_OFF = "a registry off-switch TestEveryKeyIsReached.ALLOWED keeps"
_ALL = (
    "`repro all` writes each figure's CSV and sidecar (CI artifacts); "
    "the test draws the figures without writing them"
)
_VERIFY = (
    "the `repro verify` check for an elastic block; none of the test's "
    "verify runs has one (CI verify; tests/test_verify.py)"
)
_TRIALS = (
    "a cell with two or more trials (--scale >= 0.005, "
    "results/fidelity_0.05/); every committed workload runs one "
    "(tests/test_stats.py)"
)
#: Reached or not by the live legs' wall-clock races, so a row, but
#: exempt from the stale-row check.
_RACY = (
    "timing: whether a live leg reaches it depends on how the kernel and "
    "the event loop interleave, not on the workload (tests/test_serve.py)"
)
_SOLE = (
    "a drained server holding a sole replica; no committed workload "
    "drains one (tests/test_elastic.py::TestSoleReplicaEvacuation)"
)
_FULL_DISK = (
    "a hot copy that does not fit; the committed replication scenario "
    "never fills a disk (tests/test_replication.py::TestEviction)"
)


class TestEveryFunctionIsReached:
    """Code no workload runs is a defect (ROADMAP): every ``def`` in
    ``src/repro`` is entered while the figures with claims, the
    committed scenarios, the ledger configs, the examples, five cheap
    CLI verbs, the live ``verify`` legs of ``serve_loopback`` and
    ``chaos_serve`` — the first run as the ``repro verify`` verb and
    scraped by every ``repro ops`` verb and both ``repro top``
    sources — and ``prefix_zipf_overload``'s ``verify`` run, or it is
    exempt by rule (dunders, ``Protocol`` / abstract stubs), or it has a
    row here with its reason."""

    #: Functions kept with no workload entering them, one reason each.
    ALLOWED = {
        "analysis/erlang.py::erlang_b_inverse":
            "examples/capacity_planning.py, worth keeping as the paper's "
            "Erlang-B model run backwards to size a cluster; its main() "
            "costs ~7 s under the recorder, over the class budget, so "
            "_examples skips it (tests/test_examples.py runs it)",
        "analysis/export.py::metadata_path": _ALL,
        "analysis/export.py::sweep_to_csv": _ALL,
        "analysis/export.py::write_metadata": _ALL,
        "analysis/stats.py::_central": _TRIALS,
        "analysis/stats.py::_t_multiplier": _TRIALS,
        "cli.py::_run_all": _ALL,
        "cluster/controller.py::DistributionController.check_invariants":
            "the tests' structural oracle: replica held, state ACTIVE and "
            "server_id in sync are checked nowhere else "
            "(faults/invariants.py checks conservation, capacity and "
            "underruns; tests/test_simulation.py, tests/test_soak.py)",
        "cluster/request.py::Request.headroom":
            "the readable form of the headroom the allocator inlines; "
            "tests/test_schedulers.py pins the two equal",
        "cluster/request.py::Request.remaining":
            "Request.headroom's data side, the allocator's oracle "
            "(tests/test_schedulers.py, tests/test_properties.py)",
        "cluster/system.py::SystemConfig.scaled":
            "ROADMAP item 2(b)'s catalog-size sweep; tests build reduced "
            "systems with it (tests/test_system.py)",
        "core/elastic.py::ElasticScaler._finish_evacuation": _SOLE,
        "core/elastic.py::_warm_none": _OFF,
        "core/policies.py::Policy.describe": _IMPORT,
        "core/replication.py::DynamicReplicator._evict_for": _FULL_DISK,
        "experiments/base.py::_get_pool": _POOL,
        "experiments/base.py::_pooled": _POOL,
        "experiments/base.py::_retry_cell": _POOL,
        "experiments/base.py::shutdown_pool": _BENCH,
        "experiments/base.py::usable_cpus": _POOL,
        "experiments/base.py::warm_pool": _BENCH,
        "experiments/live_serve.py::_cmd_loadgen": _PROCESS,
        "experiments/live_serve.py::_cmd_serve": _PROCESS,
        "experiments/live_serve.py::_serve_async": _PROCESS,
        "experiments/registry.py::register": _IMPORT,
        "experiments/registry.py::register_figure": _IMPORT,
        "experiments/registry.py::register_figure.run_cli":
            "a figure verb (`repro fig4` ...); the test draws the figures "
            "through their artifacts (tests/test_cli.py)",
        "experiments/registry.py::register_table": _IMPORT,
        "experiments/verify.py::_check_elastic": _VERIFY,
        "faults/invariants.py::InvariantChecker._violate": _RAISE,
        "obs/recorder.py::FlightRecorder.install_signal_handler": _PROCESS,
        "obs/recorder.py::FlightRecorder.uninstall_signal_handler": _PROCESS,
        "obs/recorder.py::read_postmortem":
            "the postmortem format's reader (docs/OBSERVABILITY.md); "
            "tests/test_recorder.py reads every dump through it",
        "prefix/cache.py::PrefixCache.bytes_held": _CACHE_PANEL,
        "prefix/cache.py::plan_none": _OFF,
        "prefix/chaining.py::batch_none": _OFF,
        "prefix/tier.py::PrefixTier.chained_active": _CACHE_PANEL,
        "prefix/tier.py::PrefixTier.on_drop":
            "a drop while the prefix tier is on; no committed scenario "
            "has both faults and a prefix block (tests/test_prefix.py::"
            "TestTierEndToEnd::test_drop_cascade_under_faults)",
        "prefix/tier.py::PrefixTier.stats": _CACHE_PANEL,
        "registry.py::Registry.register": _IMPORT,
        "registry.py::Registry.register._decorator": _IMPORT,
        "scenario.py::save_scenario":
            "the scenario format's writer; tests/test_scenario.py pins "
            "load(save(x)) == x byte for byte",
        "serve/bridge.py::PolicyBridge.replay": _BENCH,
        "serve/bridge.py::PolicyBridge.sim": _BENCH,
        "serve/config.py::ServeConfig.to_wall": _BENCH,
        # The deferred drain when the kernel did not take a control
        # frame whole.
        "serve/gateway.py::ClusterGateway._respond._flush": _RACY,
        "serve/gateway.py::ClusterGateway.abort": _RAISE,
        "sim/engine.py::Engine.events_cancelled": _BENCH,
        "workload/trace.py::Trace.duration": _PROCESS,
    }

    @staticmethod
    def package():
        return pathlib.Path(repro.__file__).resolve().parent

    @staticmethod
    def unreached(package, reached):
        """Names of the ``def``s under *package* whose ``(file, first
        line)`` is not in *reached*."""
        return {
            name for key, name in _functions(package).items()
            if key not in reached
        }

    def test_every_function_is_reached(self, unreached_functions):
        missing = unreached_functions - set(self.ALLOWED)
        assert not missing, (
            f"defined, but no workload we run enters it: "
            f"{sorted(missing)}"
        )

    def test_every_allowed_function_is_unreached(self, unreached_functions):
        # A row whose function a workload now enters, or that is gone,
        # has no reason left.
        rows = {name for name, why in self.ALLOWED.items() if why is not _RACY}
        stale = rows - unreached_functions
        assert not stale, f"allowed, but not an unreached def: {sorted(stale)}"

    def test_every_capped_run_frees_itself(self, _reach):
        # Reference counting alone frees a dropped run: every committed
        # feature combination, at no extra simulation (docs/
        # PERFORMANCE.md, "A finished run frees itself").
        left = _reach[1]["left"]
        assert not left, f"runs left to the cyclic collector: {left}"

    def test_an_unused_function_is_caught(self, tmp_path):
        import importlib.util

        package = tmp_path / "planted"
        package.mkdir()
        (package / "mod.py").write_text(_PLANTED)
        spec = importlib.util.spec_from_file_location(
            "planted_mod", package / "mod.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with _entering(package) as entered:
            module.used()
        assert self.unreached(package, _keys(entered.codes)) == {"mod.py::idle"}

    def test_every_row_has_a_reason(self):
        assert all(
            isinstance(reason, str) and reason.strip()
            for reason in self.ALLOWED.values()
        )


def _lines(package):
    """``(owners, exempt)`` over every line of a function body under
    *package* that a line event can report (:func:`_code_lines` of each
    function's code, compiled as an import compiles it): the
    ``{(file, line): "module/path.py::Qual.name"}`` of its innermost
    ``def``, and ``{(file, line): category}`` of the lines exempt by
    rule — ``except`` (a handler, its ``except`` line included),
    ``raise`` (a ``raise``, and every statement of a block inside a
    compound statement that ends in one: the lines that build its
    message), ``assert`` and ``def`` (a nested ``def``'s decorators and
    header)."""
    owners, exempt = {}, {}

    def visit(node, where, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, where, f"{prefix}{child.name}.", owner)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{where}::{prefix}{child.name}"
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
                visit(child, where, f"{prefix}{child.name}.", owner)
            else:
                visit(child, where, prefix, owner)

    for path in sorted(package.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        owner, category = {}, {}
        visit(tree, path.relative_to(package).as_posix(), "", owner)
        for node in ast.walk(tree):  # outer nodes first: they win
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                span = range(first, max(node.lineno, node.body[0].lineno - 1) + 1)
            elif isinstance(node, (ast.ExceptHandler, ast.Raise, ast.Assert)):
                span = range(node.lineno, node.end_lineno + 1)
            else:
                continue
            kind = {
                ast.ExceptHandler: "except", ast.Raise: "raise",
                ast.Assert: "assert",
            }.get(type(node), "def")
            for line in span:
                category.setdefault(line, kind)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                continue
            for name in ("body", "orelse", "finalbody"):
                # A lambda's or a conditional expression's body is a node.
                block = getattr(node, name, None)
                if isinstance(block, list) and block and isinstance(
                    block[-1], ast.Raise
                ):
                    for line in range(block[0].lineno, block[-1].end_lineno + 1):
                        category.setdefault(line, "raise")
        codes = [compile(source, str(path), "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
            if code.co_flags & CO_OPTIMIZED:
                for line in _code_lines(code):
                    if line in owner:
                        owners[(str(path), line)] = owner[line]
                    if line in category:
                        exempt[(str(path), line)] = category[line]
    return owners, exempt


@pytest.fixture(scope="module")
def unrun_lines(_reach):
    """``{"module/path.py::Qual.name": [line, ...]}``: the lines no
    workload ran, exempt ones left out, of each ``def`` in
    ``src/repro`` that one entered."""
    return TestEveryLineIsReached.unrun(
        TestEveryFunctionIsReached.package(), *_reach[2]
    )


#: Reasons shared by rows of :attr:`TestEveryLineIsReached.ALLOWED`.
_FLOAT = "a float guard: clamps what rounding pushes past its bound"
_PEER = (
    "a peer that breaks the protocol or hangs up early; the live legs' "
    "clients and probes keep to it (tests/test_serve.py, tests/test_ops.py)"
)
_CHAIN = (
    "an order of parent finish, merge, drop and re-admission the "
    "committed prefix scenarios do not produce (tests/test_prefix.py)"
)
_PAUSE = (
    "a wall-clock pause between frames; the test asks for one frame, "
    "or for --interval 0 (tests/test_ops.py)"
)
_VCR = (
    "a VCR pause due on a stream already paused or played out, or over "
    "max_pauses_per_stream (tests/test_interactivity.py)"
)
#: Run once per process, so reached or not by the rule's workloads as
#: the tests before them ran: a row, but exempt from the stale-row check.
_ONCE = (
    "a per-process first-call setup; in the full suite an earlier test "
    "may already have made it (tests/test_obs.py)"
)


#: A module for ``test_an_unused_line_is_caught``: ``used`` runs, and
#: of its lines only the ``return 1`` never does; the rest that never
#: run are exempt by rule.
_PLANTED_BRANCH = """
def used(flag=False):
    if flag:
        return 1
    try:
        assert not flag, "never"
    except AssertionError:
        flag = True
    if flag:
        why = f"flag {flag}"
        raise ValueError(why)

    def nested():
        return 2

    return [value for value in (3, 4)]
"""


class TestEveryLineIsReached:
    """A branch no workload runs is a defect too (ROADMAP item 25): in
    every ``def`` in ``src/repro`` that the workloads of
    :class:`TestEveryFunctionIsReached` enter, every line ran, or it is
    exempt by rule (``raise``, ``except`` handlers, ``assert``, and
    ``def`` / decorator lines: see :func:`_lines`), or the ``def`` has a
    row here with its reason."""

    #: Functions kept with a line no workload runs, one reason each.
    ALLOWED = {
        "analysis/report.py::sparkline":
            "a series with a missing point (a cell that did not run); "
            "every committed figure has all its cells (tests/test_report.py)",
        "analysis/stats.py::summarize": _TRIALS,
        "cli.py::_dispatch": _ALL,
        "cli.py::_obs_env":
            "restores an observability variable set before the verb; the "
            "test runs with none set (tests/test_cli.py)",
        "cluster/request.py::Request.pause_playback":
            "a viewer already paused: the retry queue pauses a stream a "
            "fault drops (faults/retry.py), which VCR may have paused; "
            "faults x VCR is not refused, so the guard is safety code "
            "(tests/test_interactivity.py)",
        "cluster/request.py::Request.resume_playback":
            "a viewer already playing: the retry queue and VCR both "
            "resume a stream (faults/retry.py, workload/interactivity.py); "
            "faults x VCR is not refused, so the guard is safety code "
            "(tests/test_interactivity.py)",
        "cluster/server.py::DataServer.detach": _FLOAT,
        "cluster/server.py::DataServer.store_replica":
            "a replica the server holds already, an idempotent store: the "
            "placement layout, DynamicReplicator and the elastic warmer "
            "each store titles the target lacks (tests/test_controller.py)",
        "core/elastic.py::ElasticScaler._add_server":
            "a joiner with nothing to warm; every committed joiner warms "
            "(tests/test_elastic.py)",
        "core/elastic.py::ElasticScaler._drain_tick":
            "a drain tick after its drain ended, or on a server that "
            "crashed while draining (tests/test_elastic.py)",
        "core/elastic.py::ElasticScaler._evacuate_sole_replicas": _SOLE,
        "core/elastic.py::ElasticScaler._scale_in":
            "a declared scale_in of the last active server, or of one "
            "already draining, departed or crashed (elastic x faults; "
            "tests/test_elastic.py)",
        "core/elastic.py::ElasticScaler._warm_next":
            "a warm title the joiner's disk cannot hold "
            "(tests/test_elastic.py)",
        "core/elastic.py::_warm_popular":
            "a title the joiner holds already or that is over the warm "
            "budget (tests/test_elastic.py)",
        "core/failover.py::FailoverManager.lose_replica":
            "a lost replica the server does not hold, or one with "
            "streams on it (tests/test_failover.py)",
        "core/migration.py::_free_slot":
            "a target on the walk's own path, or a down or closed one, met "
            "in pass 2 (tests/test_migration.py's random searches)",
        "core/replication.py::DynamicReplicator._choose_target":
            "a hot title every up server holds (tests/test_replication.py)",
        "core/replication.py::DynamicReplicator._finish_copy":
            "a copy target that crashed mid-copy; no committed run has "
            "both replication and crashes (tests/test_replication.py)",
        "core/replication.py::DynamicReplicator._start_copy": _FULL_DISK,
        "core/schedulers.py::BandwidthAllocator.allocate_into":
            "a client that cannot take more than its view bandwidth, a "
            "float guard, and two streams finishing at one boundary "
            "(tests/test_schedulers.py's lockstep property)",
        "core/schedulers.py::ProportionalShareAllocator._share_spare":
            "the capping rounds: an even share larger than a client can "
            "take (tests/test_schedulers.py)",
        "core/transmission.py::TransmissionManager.reallocate":
            "two buffer walls at one traced boundary, and a boundary "
            "already past (tests/test_transmission.py)",
        "experiments/base.py::_worker_count": _POOL,
        "experiments/base.py::run_sweep":
            "a cell retried after a pool failure, a cell with trials still "
            "to come, and the progress lines; the test draws the figures "
            "quietly, one trial a cell (tests/test_parallel_sweep.py)",
        "experiments/registry.py::Claim.judge":
            "a cross-panel claim with one panel drawn (`repro fig4 "
            "--system small`) (tests/test_registry.py::TestClaims)",
        "experiments/verify.py::_check_determinism": _RAISE,
        "experiments/verify.py::_check_faults": _RAISE,
        "experiments/verify.py::_check_live": _RAISE,
        "experiments/verify.py::_check_parity": _RAISE,
        "experiments/verify.py::_check_prefix": _RAISE,
        "experiments/verify.py::audit": _RAISE,
        "experiments/verify.py::plan":
            "a scenario over the live-leg limit (scenarios/chaos_soak.json) "
            "or with an elastic block (CI verify; tests/test_verify.py)",
        "experiments/verify.py::run_verify_cli":
            "`repro verify --out`, and the failure lines (CI verify; "
            "tests/test_verify.py)",
        "experiments/verify.py::run_virtual": _VERIFY,
        "faults/injector.py::FaultInjector._crash":
            "a crash due on a server that has departed "
            "(tests/test_faults.py)",
        "faults/injector.py::FaultInjector._degrade":
            "a link fault due on a server that has departed "
            "(tests/test_faults.py)",
        "faults/invariants.py::InvariantChecker._on_event": _RAISE,
        "faults/invariants.py::InvariantChecker.check_now": _RAISE,
        "faults/retry.py::RetryQueue._enqueue":
            "a full retry queue (MAX_PENDING) (tests/test_faults.py)",
        "obs/logging.py::get_logger": _ONCE,
        "obs/logging.py::progress_printer":
            "`--quiet`; the test's verbs print their progress "
            "(tests/test_cli.py)",
        "obs/profiler.py::EventProfiler.report":
            "a report read while the profiler is still attached "
            "(tests/test_obs.py)",
        "obs/prometheus.py::_format_value":
            "an infinite sample; no metric a workload exports is one "
            "(tests/test_obs.py)",
        "obs/prometheus.py::sanitize_metric_name":
            "a metric name that starts with a digit (tests/test_obs.py)",
        "obs/registry.py::Histogram.percentiles": _FLOAT,
        "obs/spans.py::SpanLog.get":
            "a span looked up after it closed (tests/test_obs.py)",
        "placement/base.py::clamp_counts_to_total":
            "counts over the total, or under it with every title on every "
            "server (tests/test_placement_properties.py)",
        "placement/partial.py::PartialPredictivePlacement.copy_counts":
            "a fixed boost, or a budget the cold titles cannot pay "
            "(tests/test_placement_policies.py)",
        "prefix/cache.py::plan_popularity":
            "a title with an empty prefix (tests/test_prefix.py)",
        "prefix/chaining.py::batch_window":
            "a gap the prefix does not cover under window batching "
            "(tests/test_prefix.py::TestBatchingPolicies)",
        "prefix/tier.py::PrefixTier._check_chain": _RAISE,
        "prefix/tier.py::PrefixTier._commit": _CHAIN,
        "prefix/tier.py::PrefixTier._disk_throughput":
            "no up server to read a prefix from (tests/test_prefix.py)",
        "prefix/tier.py::PrefixTier._finish_children": _CHAIN,
        "prefix/tier.py::PrefixTier._live_leader": _CHAIN,
        "prefix/tier.py::PrefixTier._schedule_child_finish": _CHAIN,
        "prefix/tier.py::PrefixTier.on_decision": _CHAIN,
        "prefix/tier.py::PrefixTier.on_finish": _CHAIN,
        "serialize.py::_load_config":
            "a `null` optional block (faults, retry, prefix ...), as "
            "save_scenario writes a run without one (tests/test_scenario.py)",
        "serialize.py::_tuplify":
            "a `null` client_mix, as save_scenario writes a run without "
            "one (tests/test_scenario.py)",
        "serve/chaos.py::ChaosPlane._on_fail._kill": _RACY,
        "serve/chaos.py::ToxicConfig.empty":
            "the test stops at a non-zero latency: every toxic a workload "
            "builds has one (tests/test_chaos_serve.py::TestToxicConfig)",
        "serve/chaos.py::ToxicWriter.drain": _STALL,
        "serve/chaos.py::leaked_tasks": _RAISE,
        "serve/chaos.py::reconcile":
            "a session lost, errored or unaccounted for in a chaos run; "
            "chaos_serve's all recover (tests/test_chaos_serve.py::"
            "TestReconcile)",
        "serve/gateway.py::ClusterGateway._process_arrival":
            "an arrival after a drain began, and a parity clamp, which the "
            "verify gate fails on (tests/test_serve.py)",
        "serve/gateway.py::ClusterGateway._reconcile_membership":
            "a membership change under a live gateway; no committed live "
            "scenario has an elastic block (tests/test_serve.py)",
        "serve/gateway.py::ClusterGateway._serve_connection": _PEER,
        "serve/gateway.py::ClusterGateway.drain":
            "sessions still open when a drain starts; the live legs drain "
            "after their last session (tests/test_serve.py)",
        "serve/gateway.py::ClusterGateway.stop":
            "a side task still running at stop (tests/test_serve.py)",
        "serve/loadgen.py::LoadGenerator.run":
            "`repro loadgen` over an empty trace: `--max-sessions 0`, or a "
            "`--duration` before the first arrival (tests/test_serve.py)",
        "serve/loadgen.py::_LiveClient._attempt": _BENCH,
        "serve/loadgen.py::_LiveClient._session": _PEER,
        "serve/loadgen.py::_LiveClient.run":
            "a session that ends lost after its last retry "
            "(tests/test_chaos_serve.py)",
        "serve/ops.py::OpsEndpoint._answer":
            "an unknown frame or verb, a bad `recent`, and `ops chaos` with "
            "a chaos plane armed (tests/test_ops.py)",
        "serve/ops.py::OpsEndpoint._handle": _PEER,
        "serve/pacing.py::Pacer.close_session":
            "a session closed by a drain (tests/test_serve.py)",
        # A tick before the clock is anchored.
        "serve/pacing.py::Pacer.server_loop": _RACY,
        "serve/pacing.py::Pacer.try_send": _STALL,
        "serve/pacing.py::VirtualClock.virtual":
            "the gateway's vt_lag gauge scraped (`repro ops`, /metrics) "
            "before the first session anchors the clock (tests/test_serve.py)",
        "serve/protocol.py::_bounded":
            "the Python 3.10 path (asyncio.timeout is 3.11+); CI's 3.10 "
            "test job runs it",
        # A length prefix split across reads.
        "serve/protocol.py::read_frame._read": _RACY,
        "serve/supervisor.py::TaskSupervisor._trip": _RAISE,
        "serve/supervisor.py::TaskSupervisor._watch": _RAISE,
        "serve/supervisor.py::TaskSupervisor.inject_crash":
            "a live kill of a server loop that is between restarts or "
            "already tripped: ChaosPlane's kills through "
            "ClusterGateway.kill_server_task (tests/test_chaos_serve.py)",
        "serve/top.py::_emit":
            "a terminal; the test's output is not one (tests/test_ops.py)",
        "serve/top.py::_rate":
            "two `repro top` samples with one uptime: a frame repeated "
            "before the gateway's clock moves (tests/test_ops.py)",
        "serve/top.py::render_top": _CACHE_PANEL,
        "serve/top.py::run_live": _PAUSE,
        "serve/top.py::run_trace": _PAUSE,
        "sim/events.py::Event.cancel":
            "an event already fired or cancelled: Process.stop after a "
            "wake-up time the engine refused (tests/test_engine.py)",
        "simulation.py::Simulation.__init__":
            "the REPRO_TRACE_OUT switch (tests/test_obs.py) and the "
            "build-stage hooks `bench/run.py` times (BENCHMARK.json)",
        "workload/interactivity.py::InteractivityModel._pause": _VCR,
        "workload/interactivity.py::InteractivityModel._resume": _VCR,
        "workload/interactivity.py::InteractivityModel._schedule_pause": _VCR,
    }

    @staticmethod
    def unrun(package, ran, unrun):
        """``{name: [line, ...]}`` of the lines in *unrun* and not in
        *ran* (``{(file, line)}`` each) that are not exempt, by the
        ``def`` under *package* that owns them."""
        owners, exempt = _lines(package)
        found = {}
        for key in sorted(unrun - ran):
            if key in owners and key not in exempt:
                found.setdefault(owners[key], []).append(key[1])
        return found

    def test_every_line_is_reached(self, unrun_lines):
        missing = {
            name: lines for name, lines in unrun_lines.items()
            if name not in self.ALLOWED
        }
        assert not missing, (
            f"in a function a workload enters, but no workload runs it: "
            f"{missing}"
        )

    def test_every_allowed_function_has_an_unrun_line(self, unrun_lines):
        # A row whose every line a workload now runs, or whose function
        # is gone, has no reason left.
        rows = {
            name for name, why in self.ALLOWED.items()
            if why is not _RACY and why is not _ONCE
        }
        stale = rows - set(unrun_lines)
        assert not stale, f"allowed, but every line runs: {sorted(stale)}"

    def test_an_unused_line_is_caught(self, tmp_path):
        import importlib.util

        package = tmp_path / "planted"
        package.mkdir()
        (package / "mod.py").write_text(_PLANTED_BRANCH)
        spec = importlib.util.spec_from_file_location(
            "planted_branch", package / "mod.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with _entering(package) as entered:
            module.used()
        assert self.unrun(package, *entered.lines()) == {"mod.py::used": [4]}

    def test_every_row_has_a_reason(self):
        assert all(
            isinstance(reason, str) and reason.strip()
            for reason in self.ALLOWED.values()
        )


class TestBehaviourGoldens:
    """"Constant behaviour" is a committed file: the capped runs of
    :func:`_capped_runs` reproduce tests/golden/behaviour.json (see its
    README), at no extra simulation."""

    GOLDEN = pathlib.Path(__file__).resolve().parent / "golden/behaviour.json"

    def test_capped_runs_match_the_goldens(self, _reach):
        golden = json.loads(self.GOLDEN.read_text())
        digests = _reach[1]["digests"]
        moved = {
            name: digests.get(name)
            for name in sorted(set(golden) | set(digests))
            if digests.get(name) != golden.get(name)
        }
        assert not moved, (
            "behaviour moved.  If on purpose, paste these entries into "
            "tests/golden/behaviour.json (null: drop it) and say why in "
            "CHANGES.md:\n" + "\n".join(
                f"  {json.dumps(name)}: {json.dumps(new, sort_keys=True)},"
                for name, new in moved.items()
            )
        )

    def test_arrival_trace_is_the_runs_own_arrivals(self, _reach):
        # The live load generator replays exactly the (time, video)
        # sequence the simulation of the same config decides: bursty
        # thinning and a second stream (client_mix) included.
        assert not _reach[1]["retraced"], (
            f"arrival_trace differs from the run's arrivals: "
            f"{_reach[1]['retraced']}"
        )


if __name__ == "__main__":
    # The child processes of ``_reach``: the keys of the capped runs,
    # what they left to the cyclic collector, their behaviour digests
    # and their arrival-trace mismatches, or (argument ``examples``)
    # the keys of the examples.
    import json

    root = pathlib.Path(__file__).resolve().parent.parent
    if sys.argv[1:] == ["examples"]:
        print(json.dumps(_examples(root)))
    else:
        reached, left, digests, retraced = _capped_runs(root)
        print(json.dumps({
            **reached, "left": left, "digests": digests, "retraced": retraced,
        }))
