"""The grid-level parallel sweep executor (repro.experiments.base).

The contract under test: parallel execution is an *implementation
detail* — a sweep dispatched to a process pool must be bit-identical
to the same sweep run serially in-process (same curves, same seeds,
same summaries), the process-persistent pool must be created exactly
once and reused across sweeps, and observability switches must force
the serial in-process fallback.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SMALL_SYSTEM, SimulationConfig
from repro.experiments import base as base_mod
from repro.experiments import client_mix, heterogeneity, svbr
from repro.experiments.base import (
    ExperimentScale,
    Variant,
    resolve_scale,
    run_sweep,
    trial_seeds,
)
from repro.placement import capacity
from repro.units import hours

TINY = SMALL_SYSTEM.scaled(n_videos=60, name="tiny")

FIG4_VARIANTS = [
    Variant("a", {"staging_fraction": 0.0}),
    Variant("b", {"staging_fraction": 0.2}),
]


def tiny_sweep(base_seed: int = 0, trials: int = 2):
    """A small fig4-shaped grid: 2 θ × 2 variants × *trials* trials."""
    return run_sweep(
        SimulationConfig(system=TINY, theta=0.0, duration=hours(1), seed=1),
        x_values=[-0.5, 0.5],
        variants=FIG4_VARIANTS,
        scale=ExperimentScale(
            duration=hours(0.5), warmup=0.0, trials=trials, scale=0.0
        ),
        base_seed=base_seed,
    )


class TestBitIdentity:
    # hypothesis disallows function-scoped fixtures under @given, so
    # the env var is managed manually.
    @settings(max_examples=3, deadline=None)
    @given(base_seed=st.integers(min_value=0, max_value=10_000))
    def test_parallel_matches_serial_bitwise(self, base_seed):
        import os

        saved = os.environ.get("REPRO_WORKERS")
        try:
            os.environ["REPRO_WORKERS"] = "1"
            serial = tiny_sweep(base_seed)
            os.environ["REPRO_WORKERS"] = "2"
            parallel = tiny_sweep(base_seed)
        finally:
            if saved is None:
                os.environ.pop("REPRO_WORKERS", None)
            else:
                os.environ["REPRO_WORKERS"] = saved
        # SummaryStats is a dataclass of floats: == means bit-identical.
        assert serial.curves == parallel.curves
        assert serial.x_values == parallel.x_values
        assert (
            serial.provenance["trial_seeds"]
            == parallel.provenance["trial_seeds"]
            == trial_seeds(2, base_seed)
        )

    @pytest.mark.parametrize(
        "run",
        [
            # The figures whose cells are built by a cell_config hook.
            lambda: client_mix.run_client_mix_series(
                system=TINY, legacy_fractions=(0.0, 0.5), scale=0.001
            ),
            lambda: heterogeneity.run_heterogeneity(
                server_counts=(2, 3), scale=0.001
            ),
            lambda: svbr.run_svbr(svbr_values=(5, 10), scale=0.001),
        ],
        ids=["client_mix", "heterogeneity", "svbr"],
    )
    def test_hooked_figures_match_serial_bitwise(self, run, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = run()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = run()
        assert serial.provenance["executor"] == "serial"
        assert parallel.provenance["executor"] == "parallel"
        assert serial.curves == parallel.curves
        assert serial.x_values == parallel.x_values

    def test_workers_holding_other_layouts_match_serial(self, monkeypatch):
        # Each worker keeps the layouts it placed (placement/capacity.py);
        # a grid of two other trial seeds must not be served from them.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        tiny_sweep(base_seed=11)
        parallel = tiny_sweep(base_seed=5)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        capacity._LAYOUTS.clear()
        serial = tiny_sweep(base_seed=5)
        assert parallel.provenance["executor"] == "parallel"
        assert serial.provenance["trial_seeds"] == trial_seeds(2, 5)
        assert serial.curves == parallel.curves

    def test_progress_lines_agree_up_to_order(self, monkeypatch):
        lines = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            got = []
            run_sweep(
                SimulationConfig(
                    system=TINY, theta=0.0, duration=hours(1), seed=1
                ),
                x_values=[-0.5, 0.5],
                variants=FIG4_VARIANTS,
                scale=ExperimentScale(
                    duration=hours(0.5), warmup=0.0, trials=1, scale=0.0
                ),
                progress=got.append,
            )
            lines[workers] = got
        assert sorted(lines["1"]) == sorted(lines["2"])
        assert len(lines["1"]) == 4  # one line per (x, variant) cell


class _CountingPool:
    """Wraps ProcessPoolExecutor, counting constructions."""

    instances = 0

    def __init__(self, real_cls):
        self._real_cls = real_cls

    def __call__(self, *args, **kwargs):
        type(self).instances += 1
        return self._real_cls(*args, **kwargs)


class TestPoolLifecycle:
    @pytest.fixture(autouse=True)
    def _fresh_pool_state(self):
        # The pool is process-persistent: reset it so construction
        # counts are deterministic, and again afterwards so no pool
        # built under a monkeypatched class leaks into other tests.
        base_mod.shutdown_pool()
        _CountingPool.instances = 0
        yield
        base_mod.shutdown_pool()

    def test_pool_created_once_and_reused_across_sweeps(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setattr(
            base_mod,
            "ProcessPoolExecutor",
            _CountingPool(base_mod.ProcessPoolExecutor),
        )
        tiny_sweep()
        tiny_sweep(base_seed=7)
        assert _CountingPool.instances == 1

    def test_pool_recreated_when_worker_count_changes(self, monkeypatch):
        monkeypatch.setattr(
            base_mod,
            "ProcessPoolExecutor",
            _CountingPool(base_mod.ProcessPoolExecutor),
        )
        monkeypatch.setenv("REPRO_WORKERS", "2")
        tiny_sweep()
        monkeypatch.setenv("REPRO_WORKERS", "3")
        tiny_sweep()
        assert _CountingPool.instances == 2

    def test_warm_pool_counts_as_the_one_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setattr(
            base_mod,
            "ProcessPoolExecutor",
            _CountingPool(base_mod.ProcessPoolExecutor),
        )
        assert base_mod.warm_pool() == 2
        tiny_sweep()
        assert _CountingPool.instances == 1

    def test_workers_1_never_creates_a_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        monkeypatch.setattr(
            base_mod,
            "ProcessPoolExecutor",
            _CountingPool(base_mod.ProcessPoolExecutor),
        )
        tiny_sweep()
        assert base_mod.warm_pool() == 1
        assert _CountingPool.instances == 0

    def test_obs_active_forces_serial_fallback(self, monkeypatch, tmp_path):
        # Tracing must aggregate in-process: no pool even with workers.
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_TRACE_OUT", str(tmp_path / "t.jsonl"))
        monkeypatch.setattr(
            base_mod,
            "ProcessPoolExecutor",
            _CountingPool(base_mod.ProcessPoolExecutor),
        )
        result = tiny_sweep(trials=1)
        assert _CountingPool.instances == 0
        assert result.provenance["executor"] == "serial"
        assert (tmp_path / "t.jsonl").exists()


class TestProvenance:
    def test_records_worker_count_and_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = tiny_sweep()
        assert result.provenance["workers"] == 2
        assert result.provenance["executor"] == "parallel"
        # 8 tasks over 2 workers × 4 chunks/worker → 1 task per chunk.
        assert result.provenance["chunk_size"] == 1
        monkeypatch.setenv("REPRO_WORKERS", "1")
        result = tiny_sweep()
        assert result.provenance["workers"] == 1
        assert result.provenance["executor"] == "serial"
        assert result.provenance["chunk_size"] is None

    def test_chunks_cover_grids_larger_than_the_pool(self, monkeypatch):
        # 2θ × 2 variants × 5 trials = 20 tasks on 2 workers → chunks
        # of 20 // 8 = 2; every cell must still land exactly once.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = tiny_sweep(trials=5)
        assert result.provenance["chunk_size"] == 2
        assert all(len(curve) == 2 for curve in result.curves.values())

    @pytest.mark.parametrize("workers,trials", [(2, 3), (2, 5), (3, 2)])
    def test_chunk_count_meets_its_target(self, monkeypatch, workers, trials):
        # The chunk size rounds down: a rounded-up size left the 10-cell
        # Figure 4 grid 5 chunks for 2 workers × 4, so its last round
        # ran on one worker.
        counts = []

        def in_process(chunks, metric, _workers):
            counts.append(len(chunks))
            return (base_mod._run_chunk(chunk, metric) for chunk in chunks)

        monkeypatch.setattr(base_mod, "_pooled", in_process)
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        tiny_sweep(trials=trials)
        tasks = 4 * trials
        assert len(counts) == 1
        assert counts[0] >= min(tasks, workers * base_mod._CHUNKS_PER_WORKER)


class TestCellFailureHandling:
    """A failed grid cell is retried once in-process; a second failure
    names the exact (x, variant, trial) cell."""

    def test_transient_failure_rescued_by_retry(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        real = base_mod._run_one
        calls = {"failures": 0}

        def flaky(config):
            if calls["failures"] == 0:
                calls["failures"] += 1
                raise RuntimeError("spurious worker death")
            return real(config)

        monkeypatch.setattr(base_mod, "_run_one", flaky)
        result = tiny_sweep(trials=1)  # completes despite the failure
        assert calls["failures"] == 1
        assert len(result.curves) == 2

    def test_persistent_failure_names_the_cell(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")

        def broken(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(base_mod, "_run_one", broken)
        with pytest.raises(base_mod.SweepCellError) as exc:
            tiny_sweep(trials=1)
        message = str(exc.value)
        # The first grid cell, pinned down exactly, plus the cause.
        assert "theta=-0.5" in message
        assert "variant='a'" in message
        assert "trial=0" in message
        assert "RuntimeError: boom" in message

    def test_keyboard_interrupt_is_not_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        calls = {"n": 0}

        def interrupted(config):
            calls["n"] += 1
            raise KeyboardInterrupt

        monkeypatch.setattr(base_mod, "_run_one", interrupted)
        with pytest.raises(KeyboardInterrupt):
            tiny_sweep(trials=1)
        assert calls["n"] == 1


class TestXApply:
    """The cell hook: ``cell_config(base, variant, x)``, which was
    ``x_apply(config, x)`` before it saw the variant."""

    def test_x_apply_replaces_flat_field_assignment(self, monkeypatch):
        import dataclasses

        monkeypatch.setenv("REPRO_WORKERS", "1")
        seen = []

        def cell(base, variant, x):
            seen.append((variant.label, x))
            return dataclasses.replace(variant.apply(base), theta=x / 10.0)

        result = run_sweep(
            SimulationConfig(system=TINY, theta=0.0, duration=hours(1),
                             seed=1),
            x_values=[1, 5],
            variants=FIG4_VARIANTS,
            scale=ExperimentScale(
                duration=hours(0.5), warmup=0.0, trials=1, scale=0.0
            ),
            x_field="theta_x10",  # not a SimulationConfig field
            cell_config=cell,
        )
        # Called once per (x, variant) cell, in grid order, with the
        # template already sized from the scale.
        assert seen == [("a", 1), ("b", 1), ("a", 5), ("b", 5)]
        assert result.x_label == "theta_x10"
        # The grid's own values survive (no float() coercion).
        assert result.x_values == [1, 5]
        assert all(type(x) is int for x in result.x_values)
        # The hook decides whether the variant applies: here it does.
        assert result.curves["a"] != result.curves["b"]


class TestEnvValidation:
    def test_malformed_repro_workers_names_the_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            base_mod._worker_count()

    def test_malformed_repro_scale_names_the_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            resolve_scale(None)

    def test_workers_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert base_mod._worker_count() == 1
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert base_mod._worker_count() == 1

    def test_explicit_scale_still_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")  # malformed but unused
        assert resolve_scale(0.001).scale == 0.001


class TestUsableCpus:
    def test_at_least_one(self):
        assert base_mod.usable_cpus() >= 1

    def test_prefers_affinity_mask(self, monkeypatch):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}
        )
        assert base_mod.usable_cpus() == 3
        # ...and it is what sizes the pool when REPRO_WORKERS is unset.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert base_mod._worker_count() == 3
