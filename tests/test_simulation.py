"""Unit tests for the Simulation facade and its configuration."""

import math

import pytest

from repro import (
    LARGE_SYSTEM,
    SMALL_SYSTEM,
    MigrationPolicy,
    Simulation,
    SimulationConfig,
    run_simulation,
)
from repro.units import hours

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
        from repro.core.replication import ReplicationPolicy

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
        from repro.faults import CrashFaults, FaultPlan, RetryPolicy

        return dict(
            retry=RetryPolicy(),
            faults=FaultPlan(crash=CrashFaults(mtbf=hours(1), mttr=60.0)),
        )

    def test_everything_but_the_tier(self):
        from repro.core.elastic import ElasticPolicy
        from repro.core.replication import ReplicationPolicy

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
        assert sim.failover.on_drop is controller.on_drop

    def test_tier_first_on_every_list(self):
        from repro.prefix import PrefixPolicy

        sim = Simulation(quick_config(prefix=PrefixPolicy(), **self.chaos()))
        controller, tier = sim.controller, sim.prefix_tier
        assert controller.intercept == tier.intercept
        assert controller.on_decision == [
            tier.on_decision, sim.retry_queue.on_decision,
        ]
        assert controller.on_finish == [tier.on_finish]
        assert controller.on_drop == [tier.on_drop, sim.retry_queue.on_drop]
        assert sim.failover.on_drop is controller.on_drop

    def test_scheduled_elastic_trigger_watches_nothing(self):
        from repro.core.elastic import ElasticPolicy

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
        decision = bridge.submit(1.0, 0)
        assert decision.accepted and decision.server in controller.servers


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
