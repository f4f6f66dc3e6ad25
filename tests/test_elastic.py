"""Elastic cluster membership (repro.cluster.membership +
repro.core.elastic).

Covered:

* the membership lifecycle state machine: legal transitions, epoch
  bumps, hook firing, illegal transitions rejected;
* :class:`ScaleEvent` / :class:`ElasticPolicy` validation and
  serialization round-trips, including the registry-backed trigger and
  warmer keys (``UnknownKeyError`` names the valid choices);
* the :class:`StorageError` deficit message (drain/warm diagnostics);
* end to end: a scenario with a rolling restart, a mid-run scale-out
  and a load trigger runs with the invariant checker on — zero
  underruns, zero drops, every server ends active or departed, and the
  whole config (calibration + elastic blocks) round-trips through
  ``to_dict``/``from_dict``;
* determinism: two same-seed elastic runs produce identical membership
  ledgers and scaler counters.
"""

import pytest

from repro.cluster.membership import ClusterMembership, ServerLifecycle
from repro.cluster.server import DataServer, StorageError
from repro.core.elastic import (
    SCALE_TRIGGERS,
    WARMERS,
    ElasticPolicy,
    ScaleEvent,
)
from repro.registry import UnknownKeyError
from repro.simulation import Simulation, SimulationConfig

from conftest import make_video


# ----------------------------------------------------------------------
# Lifecycle state machine
# ----------------------------------------------------------------------
class TestMembership:
    def test_seed_registration_does_not_bump_epoch(self):
        membership = ClusterMembership()
        for sid in range(3):
            membership.register(sid)
        assert membership.epoch == 0
        assert membership.members(ServerLifecycle.ACTIVE) == [0, 1, 2]

    def test_transitions_bump_epoch_and_record_state(self):
        membership = ClusterMembership()
        membership.register(0)
        seen = []

        def snapshot():
            seen.append((membership.states[1], membership.epoch))

        membership.register(1, ServerLifecycle.JOINING)
        snapshot()
        for state in (
            ServerLifecycle.WARMING,
            ServerLifecycle.ACTIVE,
            ServerLifecycle.DRAINING,
            ServerLifecycle.DEPARTED,
        ):
            membership.transition(1, state)
            snapshot()
        assert membership.epoch == 5
        assert [s for s, _ in seen] == [
            ServerLifecycle.JOINING,
            ServerLifecycle.WARMING,
            ServerLifecycle.ACTIVE,
            ServerLifecycle.DRAINING,
            ServerLifecycle.DEPARTED,
        ]
        assert [e for _, e in seen] == [1, 2, 3, 4, 5]
        assert membership.states[0] is ServerLifecycle.ACTIVE

    def test_illegal_transitions_rejected(self):
        membership = ClusterMembership()
        membership.register(0)
        with pytest.raises(ValueError):
            membership.transition(0, ServerLifecycle.WARMING)
        membership.transition(0, ServerLifecycle.DRAINING)
        membership.transition(0, ServerLifecycle.DEPARTED)
        with pytest.raises(ValueError):  # terminal
            membership.transition(0, ServerLifecycle.ACTIVE)

    def test_to_dict_snapshot(self):
        membership = ClusterMembership()
        membership.register(0)
        membership.register(1, ServerLifecycle.JOINING)
        snapshot = membership.to_dict()
        assert snapshot["epoch"] == 1
        assert snapshot["servers"] == {"0": "active", "1": "joining"}
        assert snapshot["counts"]["active"] == 1
        assert snapshot["counts"]["joining"] == 1


# ----------------------------------------------------------------------
# Policy validation + serialization
# ----------------------------------------------------------------------
class TestElasticPolicy:
    def test_registries_list_builtins(self):
        assert set(SCALE_TRIGGERS.describe()) == {"scheduled", "load"}
        assert set(WARMERS.describe()) == {"popular", "none"}

    def test_unknown_trigger_names_choices(self):
        with pytest.raises(UnknownKeyError, match="scheduled"):
            ElasticPolicy(trigger="psychic")
        with pytest.raises(UnknownKeyError, match="popular"):
            ElasticPolicy(warmer="cold")

    def test_scale_event_validation(self):
        with pytest.raises(ValueError):
            ScaleEvent(time=1.0, action="explode")
        with pytest.raises(ValueError):
            ScaleEvent(time=-1.0, action="scale_out")
        with pytest.raises(ValueError):
            ScaleEvent(time=1.0, action="scale_out", count=0)

    def test_policy_round_trip(self):
        policy = ElasticPolicy(
            events=(
                ScaleEvent(time=10.0, action="scale_out", bandwidth=50.0),
                ScaleEvent(time=40.0, action="scale_in", server_id=2),
            ),
            trigger="load",
            warmer="none",
            warm_fraction=0.5,
            drain_interval=2.0,
            reject_window=15.0,
            reject_threshold=3,
            cooldown=100.0,
        )
        assert ElasticPolicy.from_dict(policy.to_dict()) == policy


# ----------------------------------------------------------------------
# StorageError diagnostics (drain/warm paths surface these)
# ----------------------------------------------------------------------
class TestStorageErrorMessage:
    def test_deficit_named(self):
        server = DataServer(7, bandwidth=100.0, disk_capacity=100.0)
        with pytest.raises(StorageError) as err:
            # 250 s at 1 Mb/s = a 250 Mb replica against 100 Mb free.
            server.store_replica(make_video(video_id=9, length=250.0))
        message = str(err.value)
        assert "server 7" in message
        assert "video 9" in message
        assert "100 Mb free" in message
        assert "short by 150 Mb" in message


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def _elastic_config() -> SimulationConfig:
    return SimulationConfig.from_dict({
        "system": {
            "name": "elastic-test-3",
            "server_bandwidths": [30.0, 30.0, 30.0],
            "disk_capacities": [4000.0, 4000.0, 4000.0],
            "n_videos": 12,
            "video_length_range": [60.0, 90.0],
            "avg_copies": 2.2,
            "view_bandwidth": 3.0,
        },
        "theta": -0.8,
        "placement": "even",
        "migration": {"enabled": True},
        "staging_fraction": 0.2,
        "client_receive_bandwidth": 30.0,
        "duration": 200.0,
        "warmup": 0.0,
        "load": 1.8,
        "seed": 21,
        "calibration": {"trials": 3, "jitter": 0.05},
        "elastic": {
            "events": [
                {"time": 40.0, "action": "scale_in", "server_id": 2},
                {"time": 60.0, "action": "scale_out"},
                {"time": 120.0, "action": "scale_in"},
            ],
            "trigger": "load",
            "reject_window": 20.0,
            "reject_threshold": 8,
            "cooldown": 500.0,
        },
        "invariants": True,
    })


def _run_elastic(config):
    sim = Simulation(config)
    result = sim.run()
    return sim, result


class TestElasticEndToEnd:
    def test_config_round_trips(self):
        config = _elastic_config()
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_rolling_restart_zero_underruns(self):
        config = _elastic_config()
        sim, result = _run_elastic(config)
        assert result.underruns == 0
        assert result.dropped == 0
        assert sim.elastic_scaler is not None
        assert sim.elastic_scaler.scale_outs >= 1
        assert sim.elastic_scaler.scale_ins >= 1
        assert sim.elastic_scaler.streams_drained > 0
        membership = sim.membership
        assert membership.epoch > 0
        # Nothing may end mid-lifecycle at the horizon.
        for sid in membership.members():
            assert membership.state(sid) in (
                ServerLifecycle.ACTIVE, ServerLifecycle.DEPARTED,
            )
        # The scheduled drain of server 2 completed.
        assert membership.state(2) is ServerLifecycle.DEPARTED
        # The scale-out's joiner took over (ids are never reused).
        assert 3 in membership.members()

    def test_same_seed_runs_identical(self):
        one_sim, one = _run_elastic(_elastic_config())
        two_sim, two = _run_elastic(_elastic_config())
        assert one.accepted == two.accepted
        assert one.rejected == two.rejected
        assert one_sim.membership.to_dict() == two_sim.membership.to_dict()
        assert (
            one_sim.elastic_scaler.streams_drained
            == two_sim.elastic_scaler.streams_drained
        )
