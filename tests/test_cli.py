"""Unit tests for the command-line interface."""

import pytest

from repro import SMALL_SYSTEM, SimulationConfig
from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, trace_experiments


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("fig4", "fig5", "fig6", "fig7", "svbr", "partial",
                    "het", "ablation", "replication", "vcr",
                    "mix", "run", "all"):
            args = parser.parse_args(
                [cmd] if cmd == "fig6" else [cmd]
            )
            assert args.command == cmd

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--system", "huge"])


class TestRegistryDrivenCLI:
    """Subcommands are generated from the experiment registry, so a
    registered spec appears in a fresh parser with no CLI edits."""

    def test_every_registered_experiment_has_a_subcommand(self):
        from repro.experiments.registry import EXPERIMENTS

        parser = build_parser()
        for name in EXPERIMENTS.names():
            args = parser.parse_args([name])
            assert args.command == name

    def test_dynamically_registered_experiment_appears_and_dispatches(
        self, capsys
    ):
        from repro.experiments.registry import (
            EXPERIMENTS, ExperimentSpec, register,
        )

        def _run(args, progress):
            print("dummy ran")
            return 0

        register(ExperimentSpec(
            name="dummy-exp", help="registered by a test",
            run_cli=_run, bare=True,
        ))
        try:
            assert main(["dummy-exp"]) == 0
            assert "dummy ran" in capsys.readouterr().out
        finally:
            EXPERIMENTS.unregister("dummy-exp")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dummy-exp"])

    def test_trace_choices_come_from_trace_configs(self):
        from repro.experiments.registry import trace_experiments

        parser = build_parser()
        for name in trace_experiments():
            args = parser.parse_args(["trace", name])
            assert args.experiment == name

    @pytest.mark.parametrize("name", trace_experiments())
    def test_every_trace_config_builds(self, name):
        config = EXPERIMENTS.get(name).trace_config(SMALL_SYSTEM, 0, 0.0005)
        assert isinstance(config, SimulationConfig)

    def test_chaos_modes_come_from_chaos_registry(self):
        from repro.experiments.registry import CHAOS_EXPERIMENTS

        parser = build_parser()
        for name in CHAOS_EXPERIMENTS.names():
            args = parser.parse_args(["chaos", name])
            assert args.experiment == name

    def test_no_hand_maintained_dispatch_left(self):
        # The registry replaced the per-experiment import and dispatch
        # lists; nothing in cli.py may mention individual experiment
        # modules again.
        import inspect

        import repro.cli as cli

        source = inspect.getsource(cli)
        for needle in (
            "fig4_drm", "fig5_staging", "fig7_policies", "svbr_mod",
            "TRACE_EXPERIMENTS = (", "CHAOS_EXPERIMENTS = (",
        ):
            assert needle not in source, needle


class TestMain:
    def test_fig6_prints_matrix(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "P1" in out and "P8" in out and "20% Buffer" in out

    def test_run_command(self, capsys):
        code = main([
            "run", "--system", "small", "--theta", "0.5",
            "--hours", "0.5", "--warmup-hours", "0", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization=" in out
        assert "arrivals=" in out

    def test_run_with_migration_and_staging(self, capsys):
        code = main([
            "run", "--system", "small", "--theta", "0.0",
            "--staging", "0.2", "--migrate",
            "--hours", "0.5", "--warmup-hours", "0",
        ])
        assert code == 0
        assert "utilization=" in capsys.readouterr().out

    def test_fig5_quiet_micro(self, capsys):
        code = main([
            "fig5", "--system", "small", "--scale", "0.0005", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "20% buffer" in out

    def test_svbr_micro(self, capsys):
        code = main(["svbr", "--scale", "0.0005", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "erlang-B" in out
        assert "PASS  EXT-SVBR.tracks_erlang_b  " in out
        assert out.count("\nPASS  EXT-SVBR.") == 3


class TestChaosCLI:
    def test_chaos_subcommand_documented_in_help(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["chaos", "availability"])
        assert args.command == "chaos"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["chaos", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "availability" in help_text and "soak" in help_text
        assert "--mtbf-hours" in help_text
        assert "invariant" in help_text

    def test_chaos_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "meltdown"])

    def test_chaos_soak_micro_reports_clean_invariants(self, capsys):
        code = main([
            "chaos", "soak", "--hours", "0.5", "--mtbf-hours", "0.1",
            "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants clean" in out
        assert "faults=" in out

    def test_chaos_availability_micro(self, capsys):
        code = main([
            "chaos", "availability", "--scale", "0.0005", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Availability vs MTBF" in out
        assert "EFTF + DRM" in out and "no DRM" in out


class TestObservabilityCLI:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_trace_subcommand_writes_valid_jsonl(self, tmp_path, capsys):
        import json

        out = tmp_path / "t.jsonl"
        code = main([
            "trace", "fig5", "--system", "small",
            "--scale", "0.001", "--trace-out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "kind" in stdout and str(out) in stdout
        with open(out) as fh:
            records = [json.loads(line) for line in fh]
        assert records[0]["kind"] == "run.meta"
        assert "provenance" in records[0]
        kinds = {r["kind"] for r in records[1:]}
        assert len(kinds) >= 5
        assert all("t" in r for r in records[1:])

    def test_trace_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fig6"])

    def test_run_with_profile_reports_to_stderr(self, capsys):
        code = main([
            "run", "--system", "small", "--theta", "0.0",
            "--hours", "0.5", "--warmup-hours", "0", "--profile",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "events/sec" in captured.err
        assert "events/sec" not in captured.out

    def test_run_trace_out_env_restored(self, tmp_path):
        import os

        out = tmp_path / "r.jsonl"
        assert "REPRO_TRACE_OUT" not in os.environ
        code = main([
            "run", "--system", "small", "--theta", "0.0",
            "--hours", "0.5", "--warmup-hours", "0",
            "--trace-out", str(out),
        ])
        assert code == 0
        assert "REPRO_TRACE_OUT" not in os.environ
        assert out.exists() and out.stat().st_size > 0

    def test_trace_out_missing_parent_is_one_actionable_line(self, tmp_path):
        """A typo'd --trace-out directory fails before any simulation
        runs, naming the flag and the missing directory — not a
        traceback from deep inside the exporter."""
        target = tmp_path / "no" / "such" / "dir" / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--system", "small", "--theta", "0.0",
                "--hours", "0.5", "--warmup-hours", "0",
                "--trace-out", str(target),
            ])
        message = str(exc.value)
        assert "--trace-out" in message
        assert "does not exist" in message
        assert str(target.parent) in message

    def test_trace_out_env_missing_parent_names_the_variable(
        self, tmp_path, monkeypatch
    ):
        from repro import SMALL_SYSTEM, Simulation, SimulationConfig

        target = tmp_path / "void" / "t.jsonl"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(target))
        with pytest.raises(SystemExit, match="REPRO_TRACE_OUT"):
            Simulation(SimulationConfig(system=SMALL_SYSTEM))

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        code = main([
            "fig5", "--system", "small", "--scale", "0.0005",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        assert "utilization=" in captured.err
        assert "theta=" not in captured.out


class TestListCommand:
    def test_list_prints_every_registry_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in (
            "experiments", "chaos experiments", "allocators",
            "placements", "arrivals", "systems", "paper policies",
        ):
            assert f"{section} (" in out

    def test_list_is_registry_driven(self, capsys):
        """Every registered name appears — no hand-maintained listing."""
        from repro.cluster.system import SYSTEMS
        from repro.core.policies import PAPER_POLICIES
        from repro.experiments.registry import EXPERIMENTS
        from repro.placement import PLACEMENTS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for registry in (EXPERIMENTS, PLACEMENTS, SYSTEMS, PAPER_POLICIES):
            for name in registry.names():
                assert name in out

    def test_list_includes_help_strings(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        # Spot-check: help text rides along with the names.
        assert "serve" in out
        assert "loadgen" in out
        # Stored plain, not escaped for argparse.
        assert "(>=100%) offered load" in out and "%%" not in out

    def test_list_help_is_single_line_per_entry(self, capsys):
        assert main(["list"]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  "):
                # entry lines: name column, two-space gap, one-line help
                assert "\n" not in line and line.strip()


class TestScenarioErrorPath:
    def test_run_invalid_scenario_json_is_one_actionable_line(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": nope}')
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(bad)])
        message = str(err.value)
        assert "\n" not in message
        assert str(bad) in message
        assert "line 1 column 10" in message

    def test_run_missing_scenario_file_names_path(self, tmp_path):
        absent = tmp_path / "absent.json"
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", str(absent)])
        assert str(absent) in str(err.value)

    def test_run_scenario_conflicting_flags_rejected(self, tmp_path):
        bad = tmp_path / "any.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="--theta"):
            main([
                "run", "--scenario", str(bad), "--theta", "0.5",
            ])
