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
        assert reg.items() == [("b", 2), ("a", 1)]

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
    for name, system in SYSTEMS.items():
        if system == config.system:
            yield "systems", name
    for name, policy in PAPER_POLICIES.items():
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


@contextlib.contextmanager
def _entering(seen):
    """Add the code object of every Python function entered while the
    block runs, in any thread, to the set *seen*."""

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield seen
    finally:
        threading.setprofile(None)
        sys.setprofile(previous)


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
    in-process) — and the code objects entered while the cells ran."""
    from repro.experiments import base
    from repro.experiments.registry import EXPERIMENTS

    root = pathlib.Path(__file__).resolve().parent.parent
    configs = []
    real = base._run_one

    def record(config):
        configs.append(config)
        return real(dataclasses.replace(config, duration=60.0, warmup=0.0))

    with pytest.MonkeyPatch.context() as patch, _entering(set()) as entered:
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


#: Reason shared by rows of :attr:`TestEveryFieldIsReached.ALLOWED`.
_STALL = (
    "the toxic stall, the only way to drive the gateway's send-timeout "
    "and bounded-retry path, which is safety code (tests/"
    "test_chaos_serve.py::TestGatewayTimeouts)"
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
        "MigrationPolicy.switch_delay":
            "the paper's 'request transfer can take some time' "
            "(docs/PAPER_MAP.md); TestSwitchDelay and the switch-gap "
            "whole run set it",
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
        "ToxicConfig.cut_after_bytes":
            "the toxic mid-frame cut, the only way to hand a peer a "
            "partial frame (tests/test_chaos_serve.py::"
            "TestToxicTransports)",
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


def _bench_names(root):
    """Every name ``bench/*.py`` imports, reads as an attribute or spells
    as a string: a caller the test does not run (the ledger patches
    some of them by their string name).  Bare names are bench's own
    locals and builtins; a ``repro`` def they could reach is imported
    under its name first."""
    names = set()
    for path in (root / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _functions(package):
    """``{(file, first line): "module/path.py::Qual.name"}`` for every
    ``def`` under *package* that is not exempt by rule: dunders, stubs
    and the names ``bench/*.py`` uses.  The first line is the first
    decorator's, as in the function's code object."""
    bench = _bench_names(pathlib.Path(__file__).resolve().parent.parent)
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
                    or name in bench
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
    export runs with :func:`_entering`'s profile paused: under it, it
    added about 5 s to the capped runs, and ``_reach`` enters the export
    path in its own traced runs."""
    path = pathlib.Path(scratch) / "trace.jsonl"
    previous = sys.getprofile()
    sys.setprofile(None)
    try:
        tracer.export_jsonl(path)
    finally:
        sys.setprofile(previous)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _capped_runs(root):
    """``(entered, left, digests, retraced)``: ``{(file, first line)}``
    of every function entered while each committed scenario and ledger
    config runs traced for at most two simulated hours (a config listed
    twice, the traced ledger twin, runs once); by file, the ``repro``
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
            _entering(set()) as entered:
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
    return _keys(entered), left, digests, retraced


def _keys(entered):
    """``{(file, first line)}`` of the code objects in *entered*."""
    files = {
        name: str(pathlib.Path(name).resolve())
        for name in {code.co_filename for code in entered}
    }
    return {(files[code.co_filename], code.co_firstlineno) for code in entered}


def _examples(root):
    """``{(file, first line)}`` of every function entered while each
    ``examples/*.py`` runs its ``main()``, output discarded — all but
    ``serve_loopback.py``, a live run whose path the ``serve_loopback``
    verify of ``_reach`` enters, and ``capacity_planning.py``, ~7 s
    under the recorder (tests/test_examples.py runs it).  An example
    that raises exits the process naming it."""
    import importlib.util
    import io

    with _entering(set()) as entered:
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
    return _keys(entered)


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
    """``(entered, runs)``: ``{(file, first line)}`` of every function
    entered while each workload we run runs — the figure cells
    (recorded by ``_workloads``), :func:`_capped_runs` under the
    invariant checker, the examples (:func:`_examples`), four cheap CLI
    verbs, two ``verify`` runs with live legs on the loop clock —
    ``serve_loopback`` through the ``repro verify`` verb (its progress
    lines included), scraped by every ``repro ops`` verb and ``repro
    top`` source (:func:`_scrape`), and ``chaos_serve``, the chaos
    plane — and the virtual-only ``verify`` of ``prefix_zipf_overload``,
    the prefix check — and the rest of what :func:`_capped_runs` returns, by name
    (``left``, ``digests``, ``retraced``).  The capped runs and the
    examples go to child processes (this file run as a script) while
    the verify runs go here."""
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
            entered = stack.enter_context(_entering(set()))
            for argv in (["list"], ["fig3"], ["fig6"], [
                "run", "--scenario", str(root / "scenarios/p4_small.json"),
                "--trace-out", str(scratch / "trace.jsonl"), "--profile",
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
            seen["tracer"].export_jsonl(scratch / "serve.jsonl")
            assert main(["top", "--trace", str(scratch / "serve.jsonl")]) == 0
    finally:  # never leave a child running
        capped_out, _ = capped.communicate()
        examples_out, examples_err = examples.communicate()
    assert capped.returncode == 0, "the capped runs failed"
    assert examples.returncode == 0, examples_err[-2000:]
    runs = json.loads(capped_out)
    return (
        _keys(_workloads[1]) | _keys(entered)
        | {tuple(key) for key in runs["entered"]}
        | {tuple(key) for key in json.loads(examples_out)}
    ), runs


@pytest.fixture(scope="module")
def unreached_functions(_reach):
    """Names of the ``def``s in ``src/repro`` no workload entered."""
    return TestEveryFunctionIsReached.unreached(
        TestEveryFunctionIsReached.package(), _reach[0]
    )


#: A module for ``test_an_unused_function_is_caught``: ``idle`` is the
#: one def that is neither entered nor exempt (a dunder, a stub, a name
#: ``bench/*.py`` uses); ``cached`` is keyed by its decorator's line.
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

    def detach(self):
        return 4
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
_RAISE = (
    "a failure path, run only when a check fails "
    "(tests/test_faults.py, tests/test_chaos_serve.py)"
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
#: Reached or not by the live leg's wall-clock races, so a row, but
#: exempt from the stale-row check.
_RACY = (
    "the deferred drain when the kernel did not take a control frame "
    "whole; the live leg reaches it only under load (tests/test_serve.py)"
)


class TestEveryFunctionIsReached:
    """Code no workload runs is a defect (ROADMAP): every ``def`` in
    ``src/repro`` is entered while the figures with claims, the
    committed scenarios, the ledger configs, the examples, four cheap
    CLI verbs, the live ``verify`` legs of ``serve_loopback`` and
    ``chaos_serve`` — the first run as the ``repro verify`` verb and
    scraped by every ``repro ops`` verb and both ``repro top``
    sources — and ``prefix_zipf_overload``'s ``verify`` run, or it is
    exempt by rule (dunders, ``Protocol`` / abstract stubs, names
    ``bench/*.py`` uses), or it has a row here with its reason."""

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
        "core/elastic.py::ElasticScaler._finish_evacuation":
            "a drained server holding a sole replica; no committed "
            "workload drains one (tests/test_elastic.py::"
            "TestSoleReplicaEvacuation)",
        "core/elastic.py::_warm_none": _OFF,
        "core/policies.py::Policy.describe": _IMPORT,
        "core/replication.py::DynamicReplicator._evict_for":
            "a hot copy that does not fit; the committed replication "
            "scenario never fills a disk (tests/test_replication.py::"
            "TestEviction)",
        "experiments/base.py::_get_pool": _POOL,
        "experiments/base.py::_pooled": _POOL,
        "experiments/base.py::_retry_cell": _POOL,
        "experiments/base.py::usable_cpus": _POOL,
        "experiments/live_serve.py::_cmd_loadgen": _PROCESS,
        "experiments/live_serve.py::_cmd_serve": _PROCESS,
        "experiments/live_serve.py::_serve_async": _PROCESS,
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
        "registry.py::Registry.register._decorator": _IMPORT,
        "scenario.py::save_scenario":
            "the scenario format's writer; tests/test_scenario.py pins "
            "load(save(x)) == x byte for byte",
        "serve/gateway.py::ClusterGateway._respond._flush": _RACY,
        "serve/gateway.py::ClusterGateway.abort": _RAISE,
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
        with _entering(set()) as entered:
            module.used()
        assert self.unreached(package, _keys(entered)) == {"mod.py::idle"}

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
        print(json.dumps(sorted(_examples(root))))
    else:
        entered, left, digests, retraced = _capped_runs(root)
        print(json.dumps({
            "entered": sorted(entered), "left": left,
            "digests": digests, "retraced": retraced,
        }))
