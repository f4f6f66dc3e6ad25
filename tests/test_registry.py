"""Tests for the generic plugin registry and its concrete instances.

The actionable-error contract (ISSUE 4 satellite): every lookup site —
placement, scheduler, arrival process, system preset, paper policy,
experiment — must reject an unknown key with an error that names the
bad key *and* lists the valid choices, never a bare ``KeyError``.
"""

import pathlib
import re

import pytest

import repro
from repro.registry import (
    DuplicateKeyError,
    Registry,
    RegistryError,
    UnknownKeyError,
)


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

    def test_unregister_removes(self):
        reg = self.make()
        assert reg.unregister("a") == 1
        assert "a" not in reg
        with pytest.raises(UnknownKeyError):
            reg.unregister("a")

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
        assert reg.keys() == ["b", "a"]
        assert reg.values() == [2, 1]
        assert reg.items() == [("b", 2), ("a", 1)]

    def test_describe_and_help_for(self):
        reg = self.make()
        assert reg.describe() == {"b": "second", "a": "first"}
        assert reg.help_for("a") == "first"
        with pytest.raises(UnknownKeyError):
            reg.help_for("zzz")

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

        assert set(PLACEMENTS.names()) >= {
            "even", "predictive", "partial", "bsr",
        }
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
        from repro.experiments.registry import CHAOS_EXPERIMENTS, EXPERIMENTS

        assert set(EXPERIMENTS.names()) >= {
            "fig4", "fig5", "fig6", "fig7", "svbr", "partial", "het",
            "ablation", "replication", "vcr", "mix", "verify",
        }
        assert set(CHAOS_EXPERIMENTS.names()) == {"availability", "soak"}
        with pytest.raises(UnknownKeyError, match="experiment 'fig9'.*fig4"):
            EXPERIMENTS.get("fig9")
        with pytest.raises(
            UnknownKeyError, match="chaos experiment 'meltdown'.*availability"
        ):
            CHAOS_EXPERIMENTS.get("meltdown")

    def test_experiment_help_matches_spec(self):
        from repro.experiments.registry import EXPERIMENTS

        for name in EXPERIMENTS.names():
            assert EXPERIMENTS.help_for(name) == EXPERIMENTS.get(name).help

    def test_trace_experiments_offer_trace_config(self):
        from repro.experiments.registry import EXPERIMENTS, trace_experiments

        names = trace_experiments()
        assert set(names) == {"fig4", "fig5", "fig7"}
        for name in names:
            assert EXPERIMENTS.get(name).trace_config is not None


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

        before = set(EXPERIMENTS.names())
        mine = Registry("experiment")

        def adopt(spec):
            mine.register(spec.name, spec)
            monkeypatch.setattr(cli, "EXPERIMENTS", mine)
            return spec

        yield adopt
        for name in set(EXPERIMENTS.names()) - before:
            EXPERIMENTS.unregister(name)

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
        import ast

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


class TestDocumentedCommandsExist:
    def test_every_documented_verb_is_a_subcommand(self):
        # A verb that is deleted from the CLI must leave the docs and CI
        # too.  ``repro-vod X`` and ``python -m repro X`` count anywhere;
        # the bare ``repro X`` spelling only where it is quoted as a
        # command (after a backtick, a ``$`` prompt or a double quote),
        # so prose such as "from repro import" does not.  ``chaos`` is
        # followed by a mode, which must be a registered chaos mode.
        from repro.cli import build_parser
        from repro.experiments.registry import CHAOS_EXPERIMENTS

        root = pathlib.Path(__file__).resolve().parent.parent
        docs = [root / name for name in (
            "README.md", "DESIGN.md", "EXPERIMENTS.md",
            "scenarios/README.md", ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        )]
        docs += sorted((root / "docs").glob("*.md"))
        pattern = re.compile(
            r'(?:repro-vod|python3? -m repro|(?:`|\$ |")repro)'
            r"[ \t]+([a-z][\w-]*)(?:[ \t]+([a-z][\w-]*))?"
        )
        documented = {
            (verb, mode if verb == "chaos" else ""): doc.name
            for doc in docs
            for verb, mode in pattern.findall(doc.read_text())
        }
        # The scan finds the examples, sub-modes included.
        assert ("run", "") in documented
        assert ("chaos", "soak") in documented
        subparsers = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        stale = {
            " ".join(key).strip(): doc for key, doc in documented.items()
            if key[0] not in subparsers.choices
            or (key[1] and key[1] not in CHAOS_EXPERIMENTS.names())
        }
        assert not stale, f"documented but not a subcommand: {stale}"


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
