"""Unit tests for the observability package (repro.obs)."""

import json

import pytest

from repro.obs import (
    Counter,
    EventProfiler,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceKind,
    TraceRecord,
    Tracer,
    config_hash,
    env_profile_enabled,
    env_trace_path,
    obs_active,
    run_provenance,
)
from repro.obs.records import KIND_FIELDS
from repro.obs.runtime import PROFILE_VAR, TRACE_OUT_VAR
from repro.obs.tracer import iter_jsonl
from repro.obs import profiler as profiling
from repro.sim.engine import Engine


class TestTraceRecord:
    def test_to_dict_flattens_fields(self):
        rec = TraceRecord(1.5, TraceKind.REQUEST_ADMIT, {"request": 7, "server": 2})
        assert rec.to_dict() == {
            "t": 1.5, "kind": "request.admit", "request": 7, "server": 2,
        }

    def test_to_json_round_trips(self):
        rec = TraceRecord(0.0, TraceKind.SERVER_FAIL, {"server": 3, "orphans": 4})
        assert json.loads(rec.to_json()) == rec.to_dict()

    def test_every_kind_has_a_field_schema(self):
        for kind in TraceKind:
            assert kind in KIND_FIELDS


class TestTracer:
    def test_emit_and_counts(self):
        tr = Tracer()
        tr.emit(TraceKind.REQUEST_ARRIVE, 1.0, request=1, video=2)
        tr.emit(TraceKind.REQUEST_ARRIVE, 2.0, request=2, video=2)
        tr.emit(TraceKind.REQUEST_REJECT, 2.0, request=2, video=2, reason="holders_full")
        assert len(tr) == 3
        assert tr.emitted == 3
        assert tr.counts[TraceKind.REQUEST_ARRIVE] == 2
        assert tr.counts[TraceKind.REQUEST_REJECT] == 1

    def test_ring_bound_evicts_oldest_but_counts_stay_exact(self):
        tr = Tracer(capacity=3)
        for i in range(10):
            tr.emit(TraceKind.REQUEST_ARRIVE, float(i), request=i)
        assert len(tr) == 3
        assert tr.emitted == 10
        assert tr.dropped == 7
        assert tr.counts[TraceKind.REQUEST_ARRIVE] == 10
        assert [r.fields["request"] for r in tr.records()] == [7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_records_of_filters_by_kind(self):
        tr = Tracer()
        tr.emit(TraceKind.REQUEST_ARRIVE, 1.0, request=1)
        tr.emit(TraceKind.REQUEST_FINISH, 5.0, request=1)
        assert [r.kind for r in tr.records_of(TraceKind.REQUEST_FINISH)] == [
            TraceKind.REQUEST_FINISH
        ]

    def test_clear_zeroes_everything(self):
        tr = Tracer()
        tr.emit(TraceKind.REQUEST_ARRIVE, 1.0, request=1)
        tr.clear()
        assert len(tr) == 0 and tr.emitted == 0 and tr.counts == {}

    def test_export_jsonl_valid_lines_with_meta_header(self, tmp_path):
        tr = Tracer()
        tr.emit(TraceKind.REQUEST_ARRIVE, 1.0, request=1, video=0)
        tr.emit(TraceKind.REQUEST_ADMIT, 1.0, request=1, video=0, server=2)
        path = tmp_path / "trace.jsonl"
        lines = tr.export_jsonl(path, provenance={"seed": 42})
        assert lines == 3
        parsed = list(iter_jsonl(path))
        assert parsed[0]["kind"] == "run.meta"
        assert parsed[0]["provenance"] == {"seed": 42}
        assert parsed[0]["emitted"] == 2
        assert [p["kind"] for p in parsed[1:]] == [
            "request.arrive", "request.admit",
        ]

    def test_export_jsonl_append_mode(self, tmp_path):
        tr = Tracer()
        tr.emit(TraceKind.REQUEST_ARRIVE, 1.0, request=1)
        path = tmp_path / "trace.jsonl"
        tr.export_jsonl(path)
        tr.export_jsonl(path, append=True)
        assert len(list(iter_jsonl(path))) == 2

    def test_summary_table_lists_kinds_and_totals(self):
        tr = Tracer()
        for _ in range(4):
            tr.emit(TraceKind.REQUEST_ARRIVE, 0.0, request=0)
        tr.emit(TraceKind.SERVER_FAIL, 1.0, server=0, orphans=0)
        table = tr.summary_table()
        assert "request.arrive" in table and "4" in table
        assert "server.fail" in table
        assert "5 emitted" in table

    def test_summary_table_empty(self):
        assert "no records" in Tracer().summary_table()


class TestRegistry:
    def test_counter_inc_and_snapshot(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_supplier(self):
        g = Gauge("g")
        g.set(7)
        assert g.snapshot() == 7.0
        live = Gauge("live", supplier=lambda: 13)
        assert live.snapshot() == 13.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)
        assert snap["mean"] == pytest.approx(18.5)
        assert snap["min"] == 0.5 and snap["max"] == 50.0
        assert snap["buckets"] == {"le_1": 1, "le_10": 1, "inf": 1}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_histogram_empty_snapshot(self):
        snap = Histogram("h", bounds=(1.0,)).snapshot()
        assert snap["count"] == 0 and snap["min"] is None and snap["max"] is None

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_cross_type_name_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_snapshot_structure_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["counters"] == {"hits": 3.0}
        assert snap["gauges"] == {"depth": 2.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_reset_zeroes_all_instruments(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 0.0
        assert snap["gauges"]["g"] == 0.0
        assert snap["histograms"]["h"]["count"] == 0

    def test_names_sorted_across_types(self):
        reg = MetricsRegistry()
        reg.histogram("z")
        reg.counter("a")
        reg.gauge("m")
        assert reg.names() == ["a", "m", "z"]


class TestSuppliedCounter:
    """A counter that reads a count kept elsewhere instead of keeping
    its own copy."""

    class Source:
        hits = 0

    def test_snapshot_and_prometheus_read_the_supplier(self):
        from repro.obs import parse_prometheus, render_prometheus

        src = self.Source()
        reg = MetricsRegistry()
        reg.counter("hits", supplier=lambda: src.hits)
        src.hits = 4
        assert reg.snapshot()["counters"] == {"hits": 4.0}
        samples = parse_prometheus(render_prometheus(reg))
        assert samples["repro_hits_total"] == 4.0

    def test_inc_raises(self):
        c = MetricsRegistry().counter("hits", supplier=lambda: 0)
        with pytest.raises(RuntimeError, match="supplier"):
            c.inc()

    def test_reset_leaves_it_reading_the_reset_field(self):
        src = self.Source()
        src.hits = 9
        reg = MetricsRegistry()
        c = reg.counter("hits", supplier=lambda: src.hits)
        reg.reset()
        assert c.snapshot() == 9.0
        src.hits = 0
        assert c.snapshot() == 0.0

    def test_get_or_create_attaches_a_supplier(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        assert reg.counter("hits", supplier=lambda: 2) is c
        assert c.snapshot() == 2.0


class TestProfiler:
    def test_record_groups_kind_by_prefix(self):
        p = EventProfiler()
        p.record("tx-boundary:srv7", 0.001)
        p.record("tx-boundary:srv3", 0.002)
        p.record("arrival", 0.003)
        report = p.report()
        assert set(report.by_kind) == {"tx-boundary", "arrival"}
        assert report.by_kind["tx-boundary"][0] == 2

    def test_report_render_mentions_events_per_sec(self):
        p = EventProfiler()
        p.record("arrival", 0.5)
        text = p.report().render()
        assert "arrival" in text
        assert "events/sec" in text

    def test_attach_detach_engine_integration(self):
        engine = Engine()
        p = EventProfiler()
        p.attach(engine)
        engine.schedule(1.0, lambda: None, kind="ping:a")
        engine.schedule(2.0, lambda: None, kind="ping:b")
        engine.run()
        p.detach()
        assert engine.profiler is None
        assert p.events == 2
        assert p.report().by_kind["ping"][0] == 2

    def test_double_attach_raises(self):
        engine = Engine()
        EventProfiler().attach(engine)
        with pytest.raises(RuntimeError):
            EventProfiler().attach(engine)

    def test_engine_profiling_off_by_default(self):
        engine = Engine()
        assert engine.profiler is None
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 1

    def test_merge_into_and_aggregate(self):
        profiling.reset_aggregate()
        a = EventProfiler()
        a.record("x", 0.1)
        b = EventProfiler()
        b.record("x", 0.2)
        b.record("y", 0.3)
        profiling.aggregate(a)
        profiling.aggregate(b)
        report = profiling.aggregate_report()
        assert report.by_kind["x"][0] == 2
        assert report.by_kind["x"][1] == pytest.approx(0.3)
        profiling.reset_aggregate()
        assert profiling.aggregate_report() is None


class TestProvenance:
    def test_keys_present(self):
        prov = run_provenance(seed=5, scale=0.02)
        for key in ("repro_version", "timestamp_utc", "python", "seed",
                    "scale", "env"):
            assert key in prov
        assert prov["seed"] == 5 and prov["scale"] == 0.02

    def test_version_matches_package(self):
        from repro import __version__

        assert run_provenance()["repro_version"] == __version__

    def test_config_hash_stable_and_sensitive(self):
        from repro.cluster.system import SMALL_SYSTEM
        from repro.simulation import SimulationConfig

        a = SimulationConfig(system=SMALL_SYSTEM, theta=0.0)
        b = SimulationConfig(system=SMALL_SYSTEM, theta=0.0)
        c = SimulationConfig(system=SMALL_SYSTEM, theta=0.5)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 12

    def test_repro_env_captured(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        env = run_provenance()["env"]
        assert env["REPRO_SCALE"] == "0.5"
        assert env["REPRO_WORKERS"] == "2"

    def test_config_hash_included_when_config_given(self):
        from repro.cluster.system import SMALL_SYSTEM
        from repro.simulation import SimulationConfig

        cfg = SimulationConfig(system=SMALL_SYSTEM, theta=0.0)
        assert run_provenance(config=cfg)["config_hash"] == config_hash(cfg)


class TestRuntimeEnv:
    def test_trace_path_unset(self, monkeypatch):
        monkeypatch.delenv(TRACE_OUT_VAR, raising=False)
        assert env_trace_path() is None

    def test_trace_path_set(self, monkeypatch):
        monkeypatch.setenv(TRACE_OUT_VAR, "/tmp/x.jsonl")
        assert env_trace_path() == "/tmp/x.jsonl"
        assert obs_active()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off"])
    def test_profile_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(PROFILE_VAR, value)
        assert not env_profile_enabled()

    def test_profile_truthy(self, monkeypatch):
        monkeypatch.setenv(PROFILE_VAR, "1")
        assert env_profile_enabled()
        assert obs_active()

    def test_obs_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv(TRACE_OUT_VAR, raising=False)
        monkeypatch.delenv(PROFILE_VAR, raising=False)
        assert not obs_active()


class TestSimulationIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.cluster.system import SMALL_SYSTEM
        from repro.core.migration import MigrationPolicy
        from repro.simulation import Simulation, SimulationConfig
        from repro.units import hours

        config = SimulationConfig(
            system=SMALL_SYSTEM,
            theta=0.5,
            placement="even",
            migration=MigrationPolicy.paper_default(),
            staging_fraction=0.2,
            scheduler="eftf",
            duration=hours(3.0),
            warmup=hours(0.5),
            seed=3,
            client_receive_bandwidth=30.0,
        )
        tracer = Tracer()
        sim = Simulation(config, tracer=tracer)
        result = sim.run()
        return sim, tracer, result

    def test_trace_covers_multiple_kinds(self, traced_run):
        _, tracer, _ = traced_run
        kinds = set(tracer.counts)
        assert TraceKind.REQUEST_ARRIVE in kinds
        assert TraceKind.REQUEST_ADMIT in kinds
        assert TraceKind.REQUEST_FINISH in kinds
        assert TraceKind.SCHED_REALLOC in kinds
        assert len(kinds) >= 5

    def test_admissions_equal_trace_admits(self, traced_run):
        sim, tracer, result = traced_run
        # Warmup resets metrics but not the trace, so trace >= metrics.
        assert tracer.counts[TraceKind.REQUEST_ADMIT] >= result.accepted

    def test_reject_records_carry_the_stage_reason(self, traced_run):
        _, tracer, _ = traced_run
        reasons = [
            rec.fields["reason"]
            for rec in tracer.records_of(TraceKind.REQUEST_REJECT)
        ]
        # DRM is on and every video has a live holder, so each reject
        # is a failed chain search.
        assert reasons and set(reasons) == {"chain_exhausted"}
        assert len(reasons) == tracer.counts[TraceKind.DRM_FAIL]

    def test_registry_mirrors_lifecycle_counters(self, traced_run):
        sim, _, result = traced_run
        snap = sim.registry.snapshot()
        assert snap["counters"]["requests.arrivals"] == result.arrivals
        assert snap["counters"]["requests.accepted"] == result.accepted
        assert snap["gauges"]["streams.active"] == sim.controller.active_count

    def test_result_carries_provenance(self, traced_run):
        _, _, result = traced_run
        assert result.provenance["seed"] == 3
        assert "config_hash" in result.provenance

    def test_traced_run_matches_untraced_fingerprint(self, traced_run):
        from repro.simulation import Simulation

        sim, _, result = traced_run
        plain = Simulation(sim.config).run()
        assert plain.utilization == result.utilization
        assert plain.arrivals == result.arrivals
        assert plain.events_fired == result.events_fired


#: Faults, retry, the prefix tier and DRM all on, with a warm-up reset.
EVERY_PLANE = {
    "system": {
        "name": "prefix-overload-3", "server_bandwidths": [30.0] * 3,
        "disk_capacities": [4000.0] * 3, "n_videos": 12,
        "video_length_range": [60.0, 90.0], "avg_copies": 2.2,
        "view_bandwidth": 3.0,
    },
    "theta": -0.5, "placement": "even", "migration": {"enabled": True},
    "staging_fraction": 0.3, "client_receive_bandwidth": 30.0,
    "duration": 3600.0, "warmup": 600.0, "load": 1.4, "seed": 33,
    "prefix": {
        "strategy": "popularity", "batching": "patch", "capacity_mb": 600.0,
        "prefix_seconds": 30.0, "window_seconds": 45.0,
    },
    "faults": {
        "crash": {"mtbf": 900.0, "mttr": 300.0},
        "link": {"mtbf": 900.0, "mttr": 300.0},
        "replica": {"mean_interval": 600.0},
    },
    "retry": {"max_attempts": 4, "base_delay": 5.0},
}

KEYED = {
    r"server\.\d+\.rejections": "server.<id>.rejections",
    r"faults\.\w+": "faults.<kind>",
}


class TestRunInstruments:
    """The run's counts live in ``SimulationMetrics``' fields alone: the
    registry reads them, and nothing on the event path looks an
    instrument up by name."""

    @staticmethod
    def build():
        from repro.simulation import Simulation, SimulationConfig

        return Simulation(SimulationConfig.from_dict(EVERY_PLANE))

    def test_run_finishes_with_lookups_refused(self, monkeypatch):
        sim = self.build()

        def refuse(registry, name, *args, **kwargs):
            raise AssertionError(f"instrument {name!r} looked up by name")

        for method in ("counter", "gauge", "histogram"):
            monkeypatch.setattr(MetricsRegistry, method, refuse)
        sim.run()
        monkeypatch.undo()

        m = sim.metrics
        assert m.rejections_per_server and m.faults_per_kind
        expected = {
            "requests.arrivals": m.arrivals,
            "requests.accepted": m.accepted,
            "requests.rejected": m.rejected,
            "requests.rejected_no_replica": m.rejected_no_replica,
            "requests.finished": m.finished,
            "requests.dropped": m.dropped,
            "drm.migrations": m.migrations,
            "drm.attempts": m.migration_attempts,
            "retry.scheduled": m.retries,
            "retry.succeeded": m.retry_successes,
            "retry.exhausted": m.retry_exhausted,
            "cache.hits": m.cache_hits,
            "cache.misses": m.cache_misses,
            "cache.chained": m.chained,
            "cache.patched": m.patched,
            "cache.megabits_served": m.cache_megabits,
        }
        for sid, count in m.rejections_per_server.items():
            expected[f"server.{sid}.rejections"] = count
        for kind, count in m.faults_per_kind.items():
            expected[f"faults.{kind}"] = count
        counters = sim.registry.snapshot()["counters"]
        # Keys last seen before the warm-up reset still read, at zero.
        assert {
            name: value for name, value in counters.items()
            if name in expected or value
        } == expected
        assert m.retries and m.chained and m.migrations

    def test_no_lookup_by_name_on_the_event_path(self):
        import inspect
        import re

        from repro.analysis.metrics import SimulationMetrics
        from repro.cluster.controller import DistributionController

        methods = [
            getattr(SimulationMetrics, name)
            for name in dir(SimulationMetrics) if name.startswith("record_")
        ]
        methods.append(DistributionController._stream_finished)
        lookup = re.compile(r"\.(counter|gauge|histogram)\(")
        for fn in methods:
            assert not lookup.search(inspect.getsource(fn)), fn.__qualname__

    def test_docs_list_the_instruments_a_run_registers(self):
        import re
        from pathlib import Path

        doc = Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md"
        section = doc.read_text().split("## Metrics registry\n", 1)[1]
        listed = {}
        for block in re.split(r"\n(?=\* )", section.split("\n#", 1)[0]):
            bullet = re.match(r"\* (\w+) —", block)
            if bullet:
                paragraph = block.split("\n\n", 1)[0]
                listed[bullet.group(1)] = set(re.findall(r"`([^`]+)`", paragraph))

        sim = self.build()
        registry = sim.registry
        # Everything but the keyed families exists at build time, at zero.
        assert listed["counters"] - set(KEYED.values()) == set(registry.counters())
        assert set(registry.snapshot()["counters"].values()) == {0.0}
        assert listed["gauges"] == set(registry.gauges())
        assert listed["histograms"] == set(registry.histograms())
        sim.run()
        families = {
            family
            for name in registry.counters()
            for pattern, family in KEYED.items()
            if re.fullmatch(pattern, name)
        }
        assert families == set(KEYED.values())


class TestWatchingChangesNothing:
    """Attaching a tracer must not change the code path or the result:
    the ``sched.realloc`` record is read back off the requests after
    the one allocator pass both runs take."""

    @staticmethod
    def config(duration):
        from repro.cluster.system import SMALL_SYSTEM
        from repro.core.migration import MigrationPolicy
        from repro.simulation import SimulationConfig

        return SimulationConfig(
            system=SMALL_SYSTEM, theta=0.5, placement="even",
            migration=MigrationPolicy.paper_default(), staging_fraction=0.2,
            scheduler="eftf", duration=duration, warmup=0.0, seed=3,
            client_receive_bandwidth=30.0,
        )

    def test_same_result_same_allocator_path(self, monkeypatch):
        import dataclasses

        from repro.core.schedulers import BandwidthAllocator, EFTFAllocator
        from repro.simulation import Simulation

        calls = []

        def spy(cls, method):
            original = getattr(cls, method)

            def wrapper(self, *args):
                calls.append(method)
                return original(self, *args)

            monkeypatch.setattr(cls, method, wrapper)

        spy(BandwidthAllocator, "allocate_into")
        spy(EFTFAllocator, "_share_spare")

        def run(tracer):
            del calls[:]
            result = dataclasses.asdict(
                Simulation(self.config(3600.0), tracer=tracer).run()
            )
            result.pop("provenance")  # wall-clock stamps
            return result, list(calls)

        plain, plain_calls = run(None)
        tracer = Tracer()
        traced, traced_calls = run(tracer)
        assert traced == plain
        assert traced_calls == plain_calls
        assert "_share_spare" in plain_calls
        assert tracer.counts[TraceKind.SCHED_REALLOC] == plain_calls.count(
            "allocate_into"
        )

    def test_sched_realloc_records_match_golden(self):
        # Written by the dict-path `obs_hook` this record used to come
        # from (tests/golden/README.md).  The lazy pass integrates a
        # floor stream in one product instead of a sum of many, so a
        # boundary time may move in its last ulp: `t` is compared at
        # the 9 decimals `Decision.to_wire` keeps, every other field
        # exactly.
        from pathlib import Path

        from repro.simulation import Simulation

        def fields(record):
            return {**record, "t": round(record["t"], 9)}

        tracer = Tracer()
        Simulation(self.config(900.0), tracer=tracer).run()
        got = [
            fields(json.loads(rec.to_json()))
            for rec in tracer.records_of(TraceKind.SCHED_REALLOC)
        ]
        golden = Path(__file__).parent / "golden" / "sched_realloc_small.jsonl"
        want = [
            fields(json.loads(line))
            for line in golden.read_text().splitlines()
        ]
        assert got == want


class TestExportSidecar:
    def test_sweep_to_csv_writes_meta_sidecar(self, tmp_path):
        from repro.analysis.export import metadata_path, sweep_to_csv
        from repro.analysis.stats import summarize
        from repro.experiments.base import SweepResult, resolve_scale

        result = SweepResult(
            x_label="theta",
            x_values=[0.0, 1.0],
            curves={"c": [summarize([0.5]), summarize([0.6])]},
            metric="utilization",
            scale=resolve_scale(0.01),
            provenance={"seed": 9, "repro_version": "test"},
        )
        csv_path = tmp_path / "sweep.csv"
        sweep_to_csv(result, csv_path)
        meta = json.loads(metadata_path(csv_path).read_text())
        assert meta["seed"] == 9
        assert meta["result_file"] == "sweep.csv"

    def test_sidecar_suppressible(self, tmp_path):
        from repro.analysis.export import metadata_path, sweep_to_csv
        from repro.analysis.stats import summarize
        from repro.experiments.base import SweepResult, resolve_scale

        result = SweepResult(
            x_label="theta",
            x_values=[0.0],
            curves={"c": [summarize([0.5])]},
            metric="utilization",
            scale=resolve_scale(0.01),
        )
        csv_path = tmp_path / "sweep.csv"
        sweep_to_csv(result, csv_path, metadata=False)
        assert not metadata_path(csv_path).exists()

    def test_snapshot_to_json(self, tmp_path):
        from repro.analysis.export import snapshot_to_json

        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        out = tmp_path / "metrics.json"
        snapshot_to_json(reg, out, provenance={"seed": 1})
        payload = json.loads(out.read_text())
        assert payload["provenance"] == {"seed": 1}
        assert payload["metrics"]["counters"]["hits"] == 2.0


# ----------------------------------------------------------------------
# Histogram percentiles (the p50/p95/p99 satellite)
# ----------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_empty_histogram_yields_none(self):
        h = Histogram("empty")
        assert h.percentiles() == {50.0: None, 95.0: None, 99.0: None}
        snap = h.snapshot()
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_observation_pins_every_quantile(self):
        h = Histogram("one")
        h.observe(42.0)
        pct = h.percentiles((0.0, 50.0, 100.0))
        assert pct[0.0] == pytest.approx(42.0)
        assert pct[50.0] == pytest.approx(42.0)
        assert pct[100.0] == pytest.approx(42.0)

    def test_uniform_observations_interpolate_monotonically(self):
        h = Histogram("u", bounds=(10.0, 20.0, 30.0, 40.0))
        for v in range(1, 41):
            h.observe(float(v))
        pct = h.percentiles((25.0, 50.0, 75.0, 95.0))
        assert pct[25.0] <= pct[50.0] <= pct[75.0] <= pct[95.0]
        # Uniform on (0, 40]: the median falls in the (10, 20] bucket.
        assert 10.0 <= pct[50.0] <= 20.0
        assert pct[95.0] <= 40.0

    def test_percentiles_clamped_to_observed_range(self):
        h = Histogram("clamp", bounds=(100.0,))
        h.observe(3.0)
        h.observe(7.0)
        pct = h.percentiles((1.0, 99.0))
        assert pct[1.0] >= 3.0
        assert pct[99.0] <= 7.0

    def test_invalid_quantile_raises(self):
        h = Histogram("bad")
        with pytest.raises(ValueError):
            h.percentiles((101.0,))
        with pytest.raises(ValueError):
            h.percentiles((-1.0,))

    def test_snapshot_carries_percentiles(self):
        h = Histogram("snap")
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] is not None
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p99"] <= snap["max"]

    def test_registry_accessors_return_copies(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.gauge("g")
        reg.histogram("h")
        counters = reg.counters()
        counters["impostor"] = None
        assert "impostor" not in reg.counters()
        assert set(reg.gauges()) == {"g"}
        assert set(reg.histograms()) == {"h"}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("serve.admits").inc(3)
        reg.gauge("serve.sessions.active").set(7)
        h = reg.histogram("serve.chunk_latency_ms", bounds=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        return reg

    def test_render_counter_and_gauge_lines(self):
        from repro.obs import render_prometheus

        text = render_prometheus(self._registry())
        assert "# TYPE repro_serve_admits_total counter" in text
        assert "repro_serve_admits_total 3" in text
        assert "# TYPE repro_serve_sessions_active gauge" in text
        assert "repro_serve_sessions_active 7" in text

    def test_histogram_buckets_are_cumulative(self):
        from repro.obs import parse_prometheus, render_prometheus

        samples = parse_prometheus(render_prometheus(self._registry()))
        name = "repro_serve_chunk_latency_ms"
        le10 = samples[f'{name}_bucket{{le="10"}}']
        le100 = samples[f'{name}_bucket{{le="100"}}']
        inf = samples[f'{name}_bucket{{le="+Inf"}}']
        assert (le10, le100, inf) == (1.0, 2.0, 3.0)
        assert samples[f"{name}_count"] == 3.0
        assert samples[f"{name}_sum"] == pytest.approx(555.0)

    def test_round_trip_every_sample_parses(self):
        from repro.obs import parse_prometheus, render_prometheus

        text = render_prometheus(self._registry())
        samples = parse_prometheus(text)
        # Every non-comment line must surface as exactly one sample.
        payload_lines = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(payload_lines)

    def test_parse_rejects_garbage_naming_the_line(self):
        from repro.obs import parse_prometheus

        with pytest.raises(ValueError, match="bad sample value on line 2"):
            parse_prometheus("ok_metric 1\nbroken_metric not-a-number\n")

    def test_name_sanitization(self):
        from repro.obs.prometheus import sanitize_metric_name

        assert sanitize_metric_name("serve.server.0.bucket_mb") == (
            "serve_server_0_bucket_mb"
        )
        assert sanitize_metric_name("9lives") == "_9lives"


# ----------------------------------------------------------------------
# Session spans
# ----------------------------------------------------------------------
class TestSpans:
    def _log(self, tracer=None):
        from repro.obs import SpanLog

        return SpanLog(tracer=tracer)

    def test_lifecycle_promotes_fields_and_closes(self):
        from repro.obs import SpanPhase

        log = self._log()
        log.record(1, SpanPhase.ACCEPT, 0.1, 5.0, video=3)
        log.record(1, SpanPhase.ADMIT, 0.2, 5.0, request=9, server=2)
        span = log.record(1, SpanPhase.CLOSE, 9.0, 80.0, reason="finished")
        assert span.video == 3 and span.request == 9 and span.server == 2
        assert span.closed
        assert span.phase is SpanPhase.CLOSE
        assert log.active() == []
        assert [s.key for s in log.recent()] == [1]
        assert log.get(1) is span            # findable after close
        assert span.wall_of(SpanPhase.ADMIT) == pytest.approx(0.2)

    def test_reject_is_terminal(self):
        from repro.obs import SpanPhase

        log = self._log()
        log.record(4, SpanPhase.ACCEPT, 0.0, 1.0, video=0)
        log.record(4, SpanPhase.REJECT, 0.1, 1.0, reason="saturated")
        assert log.active() == []
        assert log.recent()[0].closed

    def test_handoffs_counted(self):
        from repro.obs import SpanPhase

        log = self._log()
        log.record(2, SpanPhase.ADMIT, 0.0, 1.0, server=0)
        log.record(2, SpanPhase.HANDOFF, 1.0, 11.0, source=0, target=1,
                   server=1)
        log.record(2, SpanPhase.HANDOFF, 2.0, 21.0, source=1, target=2,
                   server=2)
        span = log.get(2)
        assert span.handoffs == 2
        assert span.server == 2

    def test_completed_ring_is_bounded(self):
        from repro.obs import SpanLog, SpanPhase

        log = SpanLog(capacity=3)
        for key in range(10):
            log.record(key, SpanPhase.CLOSE, 0.0, float(key))
        assert len(log.recent()) == 3
        assert [s.key for s in log.recent()] == [9, 8, 7]
        assert log.recorded == 10

    def test_transitions_mirrored_into_tracer(self):
        from repro.obs import SpanPhase

        tracer = Tracer()
        log = self._log(tracer)
        log.record(5, SpanPhase.ACCEPT, 1.25, 10.0, video=7)
        log.record(5, SpanPhase.CLOSE, 2.0, 20.0, reason="finished")
        records = tracer.records_of(TraceKind.SESSION_SPAN)
        assert [r.fields["phase"] for r in records] == ["accept", "close"]
        assert records[0].time == 10.0            # virtual time is `t`
        assert records[0].fields["wall"] == pytest.approx(1.25)
        assert records[0].fields["session"] == 5

    def test_to_dict_is_json_ready(self):
        from repro.obs import SpanPhase

        log = self._log()
        log.record(6, SpanPhase.ADMIT, 0.5, 2.0, request=1, server=0)
        payload = json.loads(json.dumps(log.get(6).to_dict()))
        assert payload["phase"] == "admit"
        assert payload["events"][0]["vt"] == 2.0


# ----------------------------------------------------------------------
# Trace-path preflight (the --trace-out error satellite)
# ----------------------------------------------------------------------
class TestCheckTracePath:
    def test_missing_parent_is_one_actionable_line(self, tmp_path):
        from repro.obs import check_trace_path

        target = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            check_trace_path(str(target), flag="--trace-out")
        message = str(excinfo.value)
        assert "--trace-out" in message
        assert "does not exist" in message
        assert str(target.parent) in message

    def test_existing_parent_passes_through(self, tmp_path):
        from repro.obs import check_trace_path

        target = tmp_path / "trace.jsonl"
        assert check_trace_path(str(target)) == str(target)
        assert not target.exists() or target.stat().st_size == 0

    def test_env_var_flag_is_named(self, tmp_path):
        from repro.obs import check_trace_path

        target = tmp_path / "void" / "t.jsonl"
        with pytest.raises(SystemExit, match="REPRO_TRACE_OUT"):
            check_trace_path(str(target), flag="REPRO_TRACE_OUT")
