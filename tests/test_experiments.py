"""Unit tests for the experiment harness and the experiment modules.

Experiment modules are run at micro scale (minutes of simulated time)
— these tests pin plumbing: grids, labels, shapes of returned
structures, scale resolution, seed pairing.  The *scientific* shapes
are pinned by test_integration.py at more meaningful durations.
"""


import csv
import re

import pytest

from repro import SMALL_SYSTEM, SimulationConfig
from repro.analysis.stats import SummaryStats
from repro.experiments import ablation, fig4_drm, fig5_staging, fig7_policies
from repro.experiments import heterogeneity, partial_predictive, svbr
from repro.experiments.base import (
    ExperimentScale,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.units import hours

TINY = SMALL_SYSTEM.scaled(n_videos=60, name="tiny")

#: Micro scale: ~4h+2h runs, 1 trial — enough to exercise plumbing.
MICRO = 0.001


def micro_config(**kw):
    defaults = dict(system=TINY, theta=0.27, duration=hours(1), seed=1)
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestResolveScale:
    def test_full_scale_matches_paper(self):
        s = resolve_scale(1.0)
        assert s.trials == 5
        assert s.duration - s.warmup == pytest.approx(hours(1000))

    def test_small_scale_floors(self):
        s = resolve_scale(0.0001)
        assert s.trials == 1
        assert s.duration - s.warmup == pytest.approx(hours(4))

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        s = resolve_scale(None)
        assert s.scale == 0.5
        assert s.trials == 5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert resolve_scale(0.001).scale == 0.001

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale(0.0)

    def test_describe_mentions_trials_and_hours(self):
        text = resolve_scale(0.01).describe()
        assert "trial" in text and "h measured" in text


class TestRunSweep:
    def test_grid_shape_and_labels(self):
        scale = ExperimentScale(
            duration=hours(1.0), warmup=0.0, trials=1, scale=0.0
        )
        result = run_sweep(
            micro_config(),
            x_values=[0.0, 1.0],
            variants=[
                Variant("a", {"staging_fraction": 0.0}),
                Variant("b", {"staging_fraction": 0.2}),
            ],
            scale=scale,
        )
        assert result.x_values == [0.0, 1.0]
        assert set(result.curves) == {"a", "b"}
        for label in ("a", "b"):
            assert len(result.curves[label]) == 2
            assert all(isinstance(s, SummaryStats) for s in result.curves[label])
        assert len(result.means("a")) == 2
        rendered = result.render(title="T")
        assert "T" in rendered and "theta" in rendered

    def test_progress_callback_invoked(self):
        scale = ExperimentScale(duration=hours(0.5), warmup=0.0, trials=1, scale=0.0)
        lines = []
        run_sweep(
            micro_config(),
            x_values=[0.5],
            variants=[Variant("only", {})],
            scale=scale,
            progress=lines.append,
        )
        assert len(lines) == 1
        assert "only" in lines[0]

    def test_custom_metric(self):
        scale = ExperimentScale(duration=hours(0.5), warmup=0.0, trials=1, scale=0.0)
        result = run_sweep(
            micro_config(),
            x_values=[0.5],
            variants=[Variant("only", {})],
            scale=scale,
            metric="acceptance_ratio",
        )
        assert result.metric == "acceptance_ratio"
        assert 0.0 <= result.means("only")[0] <= 1.0


class TestExperimentModules:
    def test_fig4_variants_per_system(self):
        large_labels = [v.label for v in fig4_drm.variants_for("large")]
        small_labels = [v.label for v in fig4_drm.variants_for("small")]
        assert large_labels == [
            "no migration", "hops per request = 1", "unlimited hops",
        ]
        assert small_labels == ["no migration", "migration: chain length = 1"]

    def test_fig4_micro_run(self):
        result = fig4_drm.run_fig4(
            system=TINY, theta_values=[0.5], scale=MICRO
        )
        assert set(result.curves) == {
            "no migration", "migration: chain length = 1",
        }

    def test_fig5_micro_run(self):
        result = fig5_staging.run_fig5(
            system=TINY, theta_values=[0.5],
            fractions=(0.0, 0.2), scale=MICRO,
        )
        assert set(result.curves) == {"0% buffer", "20% buffer"}

    def test_fig7_micro_run_with_policy_subset(self):
        result = fig7_policies.run_fig7(
            system=TINY, theta_values=[0.5],
            policies=["P1", "P4"], scale=MICRO,
        )
        assert set(result.curves) == {"P1", "P4"}

    def test_fig6_table_lists_all_policies(self):
        table = fig7_policies.policy_matrix_table()
        for i in range(1, 9):
            assert f"P{i}" in table

    def test_svbr_micro_run(self):
        result = svbr.run_svbr(svbr_values=(5, 10), scale=MICRO)
        assert result.x_label == "svbr"
        assert result.x_values == [5, 10]
        assert set(result.curves) == {"simulated", "erlang-B"}
        assert len(result.means("simulated")) == 2
        analytic = result.means("erlang-B")
        assert analytic[0] < analytic[1]
        text = result.render(title=svbr.TITLE)
        assert "erlang-B" in text
        # The integer grid prints as integers, not 5.0000.
        assert "\n   5  " in text

    def test_partial_predictive_micro_run(self):
        result = partial_predictive.run_partial_predictive(
            system=TINY, theta_values=[-1.0], scale=MICRO
        )
        assert set(result.curves) == {
            "even", "partial predictive", "predictive",
        }

    def test_heterogeneity_micro_run(self):
        result = heterogeneity.run_heterogeneity(
            server_counts=(2,), scale=MICRO
        )
        assert result.x_label == "servers"
        assert result.x_values == [2]
        assert set(result.curves) == {
            "homogeneous", "het bandwidth", "het storage",
        }
        text = result.render(title=heterogeneity.TITLE)
        assert "servers" in text

    def test_ablation_micro_run(self):
        result = ablation.run_ablation(
            system=TINY, theta_values=[0.5],
            schedulers=("eftf", "none"), scale=MICRO,
        )
        assert set(result.curves) == {"eftf", "none"}

    def test_dynamic_replication_micro_run(self):
        from repro.experiments import dynamic_replication

        result = dynamic_replication.run_dynamic_replication(
            system=TINY, theta_values=[-1.0], scale=MICRO
        )
        assert set(result.curves) == {
            "even (static)", "even + dynamic replication",
            "predictive (oracle)",
        }

    def test_interactivity_micro_run(self):
        from repro.experiments import interactivity_vcr

        result = interactivity_vcr.run_interactivity(
            system=TINY, pauses_per_hour=(0.0, 4.0), scale=MICRO
        )
        assert result.x_label == "pauses_per_hour"
        assert result.x_values == [0.0, 4.0]
        assert set(result.curves) == {"no staging", "20% staging"}
        # The sidecar names the axis the table and CSV header show.
        assert result.provenance["x_field"] == result.x_label


def _helper_registered():
    """Every figure published through ``register_figure`` — recognised
    by the run_cli it built."""
    from repro.experiments.registry import EXPERIMENTS

    return [
        spec for spec in EXPERIMENTS.values()
        if spec.run_cli.__qualname__.startswith("register_figure.")
    ]


class TestRegisteredFigures:
    """Every figure declared through the one registration helper runs
    end to end: CLI table, ``repro all`` artifact(s), CSV round trip."""

    @pytest.fixture(autouse=True)
    def _short_runs(self, monkeypatch):
        # Full grids, but ten simulated minutes per cell, in-process
        # (the patched task runner is not what a pool worker imports).
        import dataclasses

        from repro.experiments import base

        real = base._run_one
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setattr(
            base, "_run_one",
            lambda config: real(
                dataclasses.replace(config, duration=600.0, warmup=0.0)
            ),
        )

    def test_the_helper_covers_the_sweep_figures(self):
        assert {spec.name for spec in _helper_registered()} == {
            "fig4", "fig5", "fig7", "partial", "ablation", "replication",
            "vcr", "mix", "svbr", "het", "availability", "prefix",
        }

    @pytest.mark.parametrize(
        "spec", _helper_registered(),
        ids=[spec.name for spec in _helper_registered()],
    )
    def test_runs_renders_and_round_trips(self, spec, capsys, tmp_path):
        from repro.analysis.export import sweep_to_csv
        from repro.cli import main
        from repro.experiments.base import SweepResult

        status = main([spec.name, "--scale", str(MICRO), "--quiet"])
        table = capsys.readouterr().out
        assert f"[scale={MICRO:g} " in table
        # Ten simulated minutes bear out nothing; the exit status only
        # has to be what the claim lines say.
        assert status == int("\nFAIL  " in table)
        if spec.artifacts is None:
            return
        for artifact in spec.artifacts(MICRO, 0, None):
            # Default options draw every panel and curve a claim reads.
            assert "not evaluated" not in artifact.text
            assert len(artifact.verdicts) == len(
                re.findall(r"^(?:PASS|FAIL)  ", artifact.text, re.M)
            )
            sweep = artifact.sweep
            assert isinstance(sweep, SweepResult)
            assert sweep.provenance["x_field"] == sweep.x_label
            assert sweep.x_label in artifact.text
            path = tmp_path / f"{artifact.stem}.csv"
            sweep_to_csv(sweep, path)
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header[0] == sweep.x_label
            assert [float(row[0]) for row in rows] == pytest.approx(
                sweep.x_values
            )
            assert header[1::3] == list(sweep.curves)
            for j, label in enumerate(sweep.curves):
                assert [float(row[1 + 3 * j]) for row in rows] == pytest.approx(
                    sweep.means(label), abs=1e-6
                )
