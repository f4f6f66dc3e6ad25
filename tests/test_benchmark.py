"""Unit tests for the perf benchmark harness (repro.benchmark)."""

import json

import pytest

from repro import benchmark


class TestEngineBenchmark:
    def test_measures_throughput(self):
        report = benchmark.engine_benchmark(n_events=2000, repeats=1)
        assert report["events"] == 2000
        assert report["events_per_sec"] > 0

    def test_exercises_cancellation_path(self):
        # The workload schedules one cancelled handle per ten events;
        # reproduce it once on a bare engine to pin that property.
        from repro.sim.engine import Engine

        engine = Engine()
        remaining = [100]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1.0, tick)
                if remaining[0] % 10 == 0:
                    engine.schedule(0.5, tick).cancel()
        engine.schedule(1.0, tick)
        engine.run_until(101.0)
        assert engine.events_fired == 100
        assert engine.events_cancelled > 0


class TestUsableCpus:
    def test_at_least_one(self):
        assert benchmark.usable_cpus() >= 1

    def test_prefers_affinity_mask(self, monkeypatch):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert benchmark.usable_cpus() == 3


class TestRunBench:
    def test_quick_report_round_trips_as_json(self, tmp_path, monkeypatch):
        # Shrink the sweep legs: micro-patch the quick shape to one x
        # value so the whole bench stays in unit-test territory.
        monkeypatch.setattr(benchmark, "ENGINE_EVENTS", 4000)
        monkeypatch.setattr(benchmark, "QUICK_SWEEP_SCALE", 0.0005)
        out = tmp_path / "perf.json"
        report = benchmark.run_bench(quick=True, out=str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk["schema"] == "repro-bench-perf/3"
        assert on_disk["sweep"]["identical"] is True
        assert on_disk["sweep"]["serial_seconds"] > 0
        assert on_disk["sweep"]["parallel_workers"] >= 2
        assert on_disk["cpu_count"] == report["cpu_count"]
        assert on_disk["cpu_usable"] >= 1
        assert "events_per_sec" in on_disk["engine"]
        # The timing-comparison shape is host-dependent but always
        # self-consistent: either both timings or an explicit skip.
        sweep = on_disk["sweep"]
        if sweep.get("skipped"):
            assert sweep["skipped"] == "cpu_count<2"
            assert sweep["parallel_seconds"] is None
            assert sweep["speedup"] is None
        else:
            assert sweep["parallel_seconds"] > 0
            assert sweep["speedup"] > 0

    def test_single_core_host_skips_timing_not_identity(self, monkeypatch):
        # The skip path must still run the 2-worker identity leg: the
        # determinism gate never goes dark on constrained hosts.
        monkeypatch.setattr(benchmark, "ENGINE_EVENTS", 4000)
        monkeypatch.setattr(benchmark, "QUICK_SWEEP_SCALE", 0.0005)
        monkeypatch.setattr(benchmark, "usable_cpus", lambda: 1)
        report = benchmark.sweep_benchmark(quick=True)
        assert report["skipped"] == "cpu_count<2"
        assert report["parallel_seconds"] is None
        assert report["speedup"] is None
        assert report["parallel_workers"] == 2
        assert report["identical"] is True

    def test_render_report_mentions_key_numbers(self):
        report = {
            "cpu_count": 4,
            "cpu_usable": 4,
            "engine": {
                "events_per_sec": 123456.0, "events": 1000, "repeats": 3,
            },
            "sweep": {
                "shape": {"figure": "fig4", "system": "small", "tasks": 10},
                "serial_seconds": 8.0,
                "parallel_seconds": 2.0,
                "parallel_workers": 4,
                "speedup": 4.0,
                "identical": True,
            },
        }
        text = benchmark.render_report(report)
        assert "123,456" in text
        assert "4.00x" in text
        assert "identical: True" in text

    def test_render_report_shows_the_skip(self):
        report = {
            "cpu_count": 1,
            "cpu_usable": 1,
            "engine": {
                "events_per_sec": 1000.0, "events": 100, "repeats": 1,
            },
            "sweep": {
                "shape": {"figure": "fig4", "system": "tiny", "tasks": 4},
                "serial_seconds": 1.0,
                "parallel_seconds": None,
                "parallel_workers": 2,
                "speedup": None,
                "skipped": "cpu_count<2",
                "identical": True,
            },
        }
        text = benchmark.render_report(report)
        assert "skipped [cpu_count<2]" in text
        assert "identical: True" in text


def _report(eps, schema="repro-bench-perf/3", **sweep_overrides):
    sweep = {
        "shape": {"figure": "fig4", "system": "small", "tasks": 10},
        "serial_seconds": 8.0,
        "parallel_seconds": 2.0,
        "parallel_workers": 4,
        "speedup": 4.0,
        "identical": True,
    }
    sweep.update(sweep_overrides)
    return {
        "schema": schema,
        "quick": True,
        "cpu_count": 4,
        "engine": {"events_per_sec": eps, "events": 1000, "repeats": 3},
        "sweep": sweep,
    }


class TestCompareReports:
    def test_within_threshold_passes(self):
        lines, regressed = benchmark.compare_reports(
            _report(950_000.0), _report(1_000_000.0)
        )
        assert not regressed
        assert any("-5.0%" in line for line in lines)

    def test_regression_beyond_threshold_flags(self):
        lines, regressed = benchmark.compare_reports(
            _report(700_000.0), _report(1_000_000.0)
        )
        assert regressed
        assert any("REGRESSION" in line for line in lines)

    def test_improvement_never_flags(self):
        _, regressed = benchmark.compare_reports(
            _report(9_000_000.0), _report(1_000_000.0)
        )
        assert not regressed

    def test_tolerates_schema_v1_baseline(self):
        baseline = _report(1_000_000.0, schema="repro-bench-perf/1")
        lines, regressed = benchmark.compare_reports(
            _report(1_000_000.0), baseline
        )
        assert not regressed
        assert any("events/sec" in line for line in lines)

    def test_skipped_sweep_is_reported_not_compared(self):
        current = _report(
            1_000_000.0,
            parallel_seconds=None,
            speedup=None,
            skipped="cpu_count<2",
        )
        lines, regressed = benchmark.compare_reports(
            current, _report(1_000_000.0)
        )
        assert not regressed
        assert any(
            "not compared (cpu_count<2)" in line for line in lines
        )

    def test_quick_mismatch_is_called_out(self):
        current = _report(1_000_000.0)
        baseline = _report(1_000_000.0)
        baseline["quick"] = False
        lines, _ = benchmark.compare_reports(current, baseline)
        assert any("quick flags differ" in line for line in lines)
