"""Unit tests for the Simulation facade and its configuration."""

import dataclasses
import gc
import json
import math
import pathlib
import sys
import weakref

import pytest
from conftest import cyclic_gc_off, left_to_gc, scratch_registry

from repro import (
    LARGE_SYSTEM,
    SMALL_SYSTEM,
    MigrationPolicy,
    Simulation,
    SimulationConfig,
    obs,
    run_simulation,
)
from repro.cluster.system import SystemConfig
from repro.core.elastic import ElasticPolicy, ScaleEvent
from repro.core.replication import ReplicationPolicy
from repro.faults import CrashFaults, FaultPlan, RetryPolicy
from repro.prefix import PrefixPolicy
from repro.serve.bridge import PolicyBridge, decisions_digest
from repro.simulation import PLANES, REFUSALS, refusal
from repro.units import hours
from repro.workload.arrivals import ARRIVALS, PoissonArrivalProcess

TINY = SMALL_SYSTEM.scaled(n_videos=60, name="tiny")


def quick_config(**overrides):
    defaults = dict(
        system=TINY,
        theta=0.27,
        duration=hours(2),
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfigValidation:
    def test_unknown_placement_rejected(self):
        # The registry's actionable error: names the bad key and the
        # valid choices (not a bare KeyError).
        with pytest.raises(ValueError, match="placement 'nope'.*even"):
            quick_config(placement="nope")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler 'nope'.*eftf"):
            quick_config(scheduler="nope")

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(
            ValueError, match="arrival process 'nope'.*poisson"
        ):
            quick_config(arrivals="nope")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            quick_config(duration=0.0)

    def test_warmup_must_precede_duration(self):
        with pytest.raises(ValueError):
            quick_config(duration=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            quick_config(warmup=-1.0)

    def test_negative_staging_rejected(self):
        with pytest.raises(ValueError):
            quick_config(staging_fraction=-0.1)

    def test_nonpositive_load_rejected(self):
        with pytest.raises(ValueError):
            quick_config(load=0.0)

    def test_theta_above_one_rejected(self):
        # Above 1 the hottest video is the last id, not the first, so
        # every id-ordered ranking (the prefix plan, the joiner warmer)
        # would pick the coldest.
        with pytest.raises(ValueError) as err:
            quick_config(theta=1.5)
        assert str(err.value) == (
            "theta must be <= 1 (1 = uniform; the paper sweeps [-1.5, 1]), "
            "got 1.5"
        )
        assert quick_config(theta=1.0).theta == 1.0


class TestCompatibilityMatrix:
    """Every :data:`REFUSALS` row is refused on its side, in its own
    words, and a config no row trips is refused by neither side."""

    #: Fields that trip each row, keyed by the start of its reason.
    TRIPS = {
        "prefix tier and VCR": dict(
            prefix=PrefixPolicy(), pause_hazard=1 / 600.0,
        ),
        "the live gateway cannot serve chained": dict(
            prefix=PrefixPolicy(batching="window"),
        ),
    }

    @pytest.mark.parametrize(
        "side, test, why", REFUSALS,
        ids=[f"{side}{i}" for i, (side, _, _) in enumerate(REFUSALS)],
    )
    def test_each_row_is_refused_on_its_side(self, side, test, why):
        (fields,) = [
            fields for start, fields in self.TRIPS.items()
            if why.startswith(start)
        ]
        if side == "sim":
            with pytest.raises(ValueError) as err:
                quick_config(**fields)
            assert str(err.value) == why
            return
        from repro.experiments import verify
        from repro.serve import ClusterGateway, ServeConfig

        assert side == "serve"
        config = quick_config(**fields)
        assert test(config)
        with pytest.raises(ValueError) as err:
            ClusterGateway(config, ServeConfig(port=0))
        assert str(err.value) == why
        assert verify.plan(config)["skipped"] == {"live": why}

    @pytest.mark.parametrize("prefix", [
        None, PrefixPolicy(batching="none"),
    ], ids=["tierless", "cache-only"])
    def test_a_config_no_row_trips_is_refused_nowhere(self, prefix):
        config = quick_config(prefix=prefix)
        assert [refusal(side, config) for side in ("sim", "serve")] == [
            None, None,
        ]


class TestBuildStages:
    def test_the_ledger_stamps_every_stage(self):
        # bench/layers.py stamps simulation.build.<stage>_s after each
        # stage, and the ledger refuses a metric BENCHMARK.json does not
        # declare: a renamed or added stage fails every traced run.
        root = pathlib.Path(__file__).resolve().parent.parent
        declared = json.loads((root / "BENCHMARK.json").read_text())
        prefix, suffix = "simulation.build.", "_s"
        stamped = tuple(
            metric["name"][len(prefix):-len(suffix)]
            for metric in declared["per_layer"]
            if metric["name"].startswith(prefix)
        )
        assert stamped == Simulation.BUILD_STAGES
        assert {stage for _, stage, _, _ in PLANES} <= set(stamped)


class TestRun:
    def test_result_fields_consistent(self):
        result = run_simulation(quick_config())
        assert 0.0 < result.utilization <= 1.0
        assert result.accepted + result.rejected == result.arrivals
        assert result.acceptance_ratio == pytest.approx(
            result.accepted / result.arrivals
        )
        assert result.megabits_sent > 0.0
        assert result.events_fired > 0
        assert result.placement_shortfall == 0

    def test_deterministic_given_seed(self):
        a = run_simulation(quick_config(seed=11))
        b = run_simulation(quick_config(seed=11))
        assert a.utilization == b.utilization
        assert a.arrivals == b.arrivals
        assert a.accepted == b.accepted
        assert a.events_fired == b.events_fired

    def test_different_seeds_differ(self):
        a = run_simulation(quick_config(seed=1))
        b = run_simulation(quick_config(seed=2))
        assert a.arrivals != b.arrivals or a.utilization != b.utilization

    def test_single_use(self):
        sim = Simulation(quick_config())
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_low_load_is_fully_accepted(self):
        result = run_simulation(quick_config(load=0.3))
        assert result.acceptance_ratio > 0.999
        assert result.utilization < 0.5

    def test_utilization_tracks_offered_load_when_unsaturated(self):
        result = run_simulation(
            quick_config(load=0.5, duration=hours(6), warmup=hours(2))
        )
        assert result.utilization == pytest.approx(0.5, abs=0.08)

    def test_warmup_changes_measurement_window(self):
        cold = run_simulation(quick_config(duration=hours(4)))
        warm = run_simulation(quick_config(duration=hours(4), warmup=hours(2)))
        # Warm measurement excludes the empty ramp-in, so it reads higher.
        assert warm.utilization > cold.utilization

    def test_arrival_rate_calibration(self):
        sim = Simulation(quick_config(load=1.0))
        expected_size = sim.popularity.expected_value(sim.catalog.sizes)
        assert sim.arrival_rate * expected_size == pytest.approx(
            TINY.total_bandwidth
        )

    def test_client_receive_override(self):
        sim = Simulation(quick_config(client_receive_bandwidth=math.inf))
        profile = sim.controller._profile_for(0)
        assert math.isinf(profile.receive_bandwidth)

    def test_staging_buffer_sized_from_mean_video(self):
        sim = Simulation(quick_config(staging_fraction=0.2))
        profile = sim.controller._profile_for(0)
        assert profile.buffer_capacity == pytest.approx(
            0.2 * sim.catalog.mean_size
        )

    def test_interactivity_wired_when_hazard_positive(self):
        sim = Simulation(quick_config(pause_hazard=1 / 600.0))
        assert sim.interactivity is not None
        sim.run()
        assert sim.interactivity.pauses_executed > 0

    def test_interactivity_absent_by_default(self):
        sim = Simulation(quick_config())
        assert sim.interactivity is None

    def test_replicator_wired_when_policy_given(self):
        sim = Simulation(quick_config(replication=ReplicationPolicy()))
        assert sim.replicator is not None
        assert sim.controller.on_decision == [sim.replicator.on_decision]

    def test_invariants_hold_after_run(self):
        sim = Simulation(quick_config(migration=MigrationPolicy.paper_default()))
        sim.run()
        sim.controller.check_invariants()


class TestLifecycleWiring:
    """The controller's notification lists hold exactly the observers
    ``Simulation`` declares, in the order it declares them."""

    @staticmethod
    def chaos():
        return dict(
            retry=RetryPolicy(),
            faults=FaultPlan(crash=CrashFaults(mtbf=hours(1), mttr=60.0)),
        )

    def test_everything_but_the_tier(self):
        sim = Simulation(quick_config(
            replication=ReplicationPolicy(),
            elastic=ElasticPolicy(trigger="load"),
            pause_hazard=1 / 600.0,
            **self.chaos(),
        ))
        controller = sim.controller
        assert controller.intercept is None
        assert controller.on_decision == [
            sim.interactivity.on_decision,
            sim.retry_queue.on_decision,
            sim.replicator.on_decision,
            sim.elastic_scaler.on_decision,
        ]
        assert controller.on_finish == []
        assert controller.on_drop == [sim.retry_queue.on_drop]
        assert sim.failover.drop_handlers is controller.on_drop

    def test_tier_first_on_every_list(self):
        sim = Simulation(quick_config(prefix=PrefixPolicy(), **self.chaos()))
        controller, tier = sim.controller, sim.prefix_tier
        assert controller.intercept == tier.intercept
        assert controller.on_decision == [
            tier.on_decision, sim.retry_queue.on_decision,
        ]
        assert controller.on_finish == [tier.on_finish]
        assert controller.on_drop == [tier.on_drop, sim.retry_queue.on_drop]
        assert sim.failover.drop_handlers is controller.on_drop

    def test_scheduled_elastic_trigger_watches_nothing(self):
        sim = Simulation(quick_config(elastic=ElasticPolicy()))
        assert sim.elastic_scaler is not None
        assert sim.controller.on_decision == []

    def test_policy_bridge_registers_no_observer(self):
        from repro.serve.bridge import PolicyBridge

        bridge = PolicyBridge(quick_config())
        controller = bridge.controller
        assert controller.intercept is None
        assert controller.on_decision == []
        assert controller.on_finish == [] and controller.on_drop == []
        decision, request = bridge.submit(1.0, 0)
        assert decision.accepted and decision.server in controller.servers
        assert request.request_id == decision.request
        assert request.server_id == decision.server


#: One server with room for one 3 Mb/s stream, one 60 s video: a
#: second arrival is admitted only once the first stream has finished.
ONE_SLOT = SystemConfig(
    name="one-slot", server_bandwidths=(4.5,), disk_capacities=(1e4,),
    n_videos=1, video_length_range=(60.0, 60.0), avg_copies=1.0,
    view_bandwidth=3.0,
)


def fixed_arrivals(arrivals):
    """An arrival kind whose draw loop is *arrivals*, ``(time, video)``."""

    class Fixed(PoissonArrivalProcess):
        @staticmethod
        def draws(rate, popularity, rng):
            return iter(arrivals)

    return Fixed


class TestOneArrivalPath:
    """A run's own arrival process and :meth:`Simulation.submit` decide
    alike: an arrival at *t* comes after every engine event due at *t*
    (docs/SERVING.md, "The parity contract")."""

    CONFIG = SimulationConfig(
        system=ONE_SLOT, staging_fraction=0.2, duration=600.0, seed=5,
    )

    def test_an_arrival_at_a_finish_instant_sees_the_slot_freed(self):
        # The first stream fills its staging buffer before it finishes,
        # so its finish event is scheduled after the run's arrival
        # process queued the second arrival: only the rule, not the
        # scheduling order, puts the finish first.
        probe, finishes = Simulation(self.CONFIG), []
        probe.controller.on_finish.append(
            lambda request, now: finishes.append(now)
        )
        probe.submit(1.0, 0)
        probe.advance(self.CONFIG.duration)
        (finish,) = finishes
        arrivals = [(1.0, 0), (finish, 0)]

        fed = PolicyBridge(self.CONFIG)
        for time, video in arrivals:
            fed.submit(time, video)
        fed.advance(self.CONFIG.duration)
        fed.finalize()
        with scratch_registry(ARRIVALS):
            ARRIVALS.register("fixed", fixed_arrivals(arrivals))
            ran = PolicyBridge(dataclasses.replace(
                self.CONFIG, arrivals="fixed",
            ))
            ran.run()
        assert [d.outcome for d in fed.decisions] == ["accepted"] * 2
        assert decisions_digest(ran.decisions) == decisions_digest(
            fed.decisions
        )

    def test_run_is_advance_and_finish_over_its_own_arrivals(self):
        config = quick_config(duration=hours(0.5))
        ran = PolicyBridge(config)
        ran_result = ran.run()
        fed = PolicyBridge(config)
        for decision in ran.decisions:
            fed.submit(decision.time, decision.video)
        fed.advance(config.duration)
        fed_result = fed.finish()
        assert decisions_digest(fed.decisions) == decisions_digest(
            ran.decisions
        )
        # The arrival process's own wake-ups are the only difference.
        assert fed_result == dataclasses.replace(
            ran_result, events_fired=fed_result.events_fired,
        )


class TestRequestIdsPerSimulation:
    def test_a_build_run_after_another_decides_as_a_fresh_one(self):
        """Each simulation numbers its own requests, so how builds and
        runs interleave in one process cannot move a run's ids (they key
        retry jitter and the decision digest): build A, build B, run B,
        run A, and A decides as a fresh build does."""
        from repro.scenario import load_scenario

        root = pathlib.Path(__file__).resolve().parent.parent
        config = load_scenario(root / "scenarios/serve_loopback.json").config
        fresh = PolicyBridge(config)
        fresh_result = fresh.run()
        first, second = PolicyBridge(config), PolicyBridge(config)
        second.run()
        assert first.run() == fresh_result
        assert decisions_digest(first.decisions) == decisions_digest(
            fresh.decisions
        )


def bridge_left_to_gc(finalize=True):
    """``repro`` objects left to the cyclic collector by a
    :class:`PolicyBridge` that replayed ``serve_loopback``'s trace and
    was finalized (or, with *finalize* false, dropped as it stood): 0
    when it frees itself."""
    from repro.scenario import load_scenario
    from repro.serve.loadgen import arrival_trace

    root = pathlib.Path(__file__).resolve().parent.parent
    config = load_scenario(root / "scenarios/serve_loopback.json").config
    with cyclic_gc_off():
        bridge = PolicyBridge(config)
        bridge.replay(arrival_trace(bridge))
        if finalize:
            bridge.finalize()
        del bridge
        return sum(left_to_gc().values())


def _retire_readings(sim):
    """Everything the ledger reads off a finished run
    (``bench/layers.py::counter_metrics``) that the retire step could
    touch."""
    return (
        sim.engine.events_fired,
        sim.engine.events_cancelled,
        [m.reallocations for m in sim.controller.managers.values()],
        sim.registry.snapshot(),
        sim.prefix_tier.stats() if sim.prefix_tier is not None else None,
    )


def ledger_configs():
    """``{name: (config, traced)}`` of the sim ledger workloads
    (``bench/workloads``)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    configs = {}
    for path in sorted((root / "bench/workloads").glob("*.json")):
        raw = json.loads(path.read_text())
        if raw["kind"] == "sim":
            configs[path.stem] = (
                SimulationConfig.from_dict(raw["config"]), bool(raw.get("tracer"))
            )
    return configs


def ledger_left_to_gc(run=True):
    """``repro`` objects left to the cyclic collector by one run (with
    *run* false, one unrun build) of each sim ledger config, traced
    where the workload is, summed: 0 when every one frees itself."""
    left = 0
    with cyclic_gc_off():
        for config, traced in ledger_configs().values():
            sim = Simulation(config, tracer=obs.Tracer() if traced else None)
            if run:
                sim.run()
            del sim
            left += sum(left_to_gc().values())
    return left


class TestARunFreesItself:
    """A finished run is no reference cycle: dropping the last
    reference to a Simulation frees its whole graph through reference
    counting (docs/PERFORMANCE.md, "A finished run frees itself")."""

    #: Feature mixes: name -> (config, traced).
    MIXES = {
        "traced large P4": (SimulationConfig(
            system=LARGE_SYSTEM, migration=MigrationPolicy.paper_default(),
            staging_fraction=0.2, duration=hours(1.5), seed=1,
        ), True),
        "prefix patch": (quick_config(
            prefix=PrefixPolicy(batching="patch", window_seconds=180.0),
            staging_fraction=0.3, load=1.3,
        ), False),
        "chaos, retry, elastic, invariants": (quick_config(
            faults=FaultPlan(crash=CrashFaults(mtbf=hours(0.5), mttr=600.0)),
            retry=RetryPolicy(),
            elastic=ElasticPolicy(
                events=(ScaleEvent(time=600.0, action="scale_out"),),
                trigger="load",
            ),
            invariants=True, load=1.3,
        ), False),
        "VCR": (quick_config(pause_hazard=1 / 600.0), False),
        "dynamic replication": (quick_config(
            replication=ReplicationPolicy(), theta=-0.5,
        ), False),
    }

    @pytest.mark.parametrize("mix", list(MIXES))
    def test_dropping_a_finished_run_frees_it(self, mix, monkeypatch):
        config, traced = self.MIXES[mix]
        retire, before = Simulation._retire, []

        def watched(sim):
            before.append(_retire_readings(sim))
            retire(sim)

        monkeypatch.setattr(Simulation, "_retire", watched)
        with cyclic_gc_off():
            sim = Simulation(config, tracer=obs.Tracer() if traced else None)
            sim.run()
            assert before == [_retire_readings(sim)]
            refs = [
                weakref.ref(obj) for obj in (
                    sim.engine, sim.controller, sim.tracer, sim.prefix_tier,
                ) if obj is not None
            ]
            del sim
            assert [ref() for ref in refs] == [None] * len(refs)
            assert left_to_gc() == {}

    @pytest.mark.parametrize("name", list(ledger_configs()))
    def test_dropping_an_unrun_build_frees_it(self, name):
        config, traced = ledger_configs()[name]
        with cyclic_gc_off():
            Simulation(config, tracer=obs.Tracer() if traced else None)
            assert left_to_gc() == {}

    def test_a_finalized_bridge_frees_itself(self):
        assert bridge_left_to_gc() == 0

    def test_a_dropped_unfinalized_bridge_frees_itself(self):
        assert bridge_left_to_gc(finalize=False) == 0

    @pytest.mark.parametrize("hooks", [
        {"nosuchstage": print}, {"controller": lambda sim: 1 / 0},
    ], ids=["unknown stage", "hook raises"])
    def test_a_build_that_raised_drops_quietly(self, hooks, monkeypatch):
        # Dropping it retires nothing and prints no "Exception ignored".
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises((ValueError, ZeroDivisionError)):
            Simulation(quick_config(), stage_hooks=hooks)
        gc.collect()
        assert unraisable == []

    def test_a_registry_that_outlives_its_run_says_so(self):
        sim = Simulation(quick_config(duration=hours(0.5)))
        sim.run()
        registry = sim.registry
        assert registry.snapshot()["counters"]["requests.arrivals"] > 0
        del sim
        # One line naming the first instrument read, never a stale 0.
        with pytest.raises(RuntimeError, match="^metric cache.chained: ") as exc:
            registry.snapshot()
        assert "\n" not in str(exc.value)
        with pytest.raises(RuntimeError, match=r"^metric [\w.]+: the object"):
            obs.render_prometheus(registry)


class TestSystemPresetsRun:
    @pytest.mark.parametrize("system", [SMALL_SYSTEM, LARGE_SYSTEM],
                             ids=["small", "large"])
    def test_presets_produce_sane_utilization(self, system):
        result = run_simulation(
            SimulationConfig(
                system=system, theta=0.27, duration=hours(3),
                warmup=hours(1), seed=5,
            )
        )
        assert 0.5 < result.utilization <= 1.0
        assert result.arrivals > 100
