"""Elastic cluster membership (repro.cluster.membership +
repro.core.elastic).

Covered:

* the membership lifecycle state machine: legal transitions, epoch
  bumps, hook firing, illegal transitions rejected;
* :class:`ScaleEvent` / :class:`ElasticPolicy` validation, including
  the registry-backed trigger and warmer keys (``UnknownKeyError``
  names the valid choices); their round trip is part of the config
  property in tests/test_scenario.py;
* the :class:`StorageError` deficit message (drain/warm diagnostics);
* the ``"popular"`` warmer's list for a joiner: lowest id first, held
  and oversized titles skipped, at most ``warm_fraction`` of the
  catalog;
* end to end: a scenario with a rolling restart, a mid-run scale-out
  and a load trigger runs with the invariant checker on — zero
  underruns, zero drops, every server ends active or departed, and the
  whole config (calibration + elastic blocks) round-trips through
  ``to_dict``/``from_dict``;
* determinism: two same-seed elastic runs produce identical membership
  ledgers and scaler counters;
* a joiner that crashes while warming carries on warming once it is
  restored, the lost copy included, and activates;
* a drained server holding the only copy of a title copies it to a
  member before it departs.
"""

from types import SimpleNamespace

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
from repro.workload.catalog import VideoCatalog

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
# The joiner's warm list
# ----------------------------------------------------------------------
class TestPopularWarmer:
    def test_hottest_fitting_titles_up_to_warm_fraction(self):
        # Sizes in Mb (1 Mb/s): video 2 (950 Mb) outgrows the joiner's
        # 900 Mb free once video 0 is planned; video 1 is already held.
        lengths = [100.0, 100.0, 950.0, 100.0, 100.0, 100.0, 100.0, 100.0]
        catalog = VideoCatalog(videos=tuple(
            make_video(video_id=i, length=ln) for i, ln in enumerate(lengths)
        ))
        server = DataServer(9, bandwidth=100.0, disk_capacity=1000.0)
        server.store_replica(catalog[1])
        scaler = SimpleNamespace(
            catalog=catalog, policy=ElasticPolicy(warm_fraction=0.5)
        )
        # Videos 6 and 7 would fit, but 0.5 of 8 titles is 4.
        assert WARMERS.get("popular")(scaler, server) == [0, 3, 4, 5]


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


class TestCrashWhileWarming:
    """A joiner is only reachable by correlated crashes, and one can
    land mid-warm; the restore must pick the warming up again."""

    JOIN, CRASH, RESTORE = 60.0, 70.0, 200.0

    def run(self, crash: bool):
        from repro.units import hours

        config = SimulationConfig.from_dict({
            "system": {"preset": "small", "n_videos": 60},
            "theta": 0.3,
            "migration": {"enabled": True},
            "staging_fraction": 0.2,
            "duration": hours(0.5),
            "seed": 4,
            "elastic": {
                "events": [{"time": self.JOIN, "action": "scale_out"}],
            },
            # A retry queue builds the failover manager; no fault plan.
            "retry": {},
            "invariants": True,
        })
        sim = Simulation(config)
        if crash:
            failover = sim.failover
            sim.engine.schedule_at(
                self.CRASH, lambda: failover.fail_server(5), kind="test:crash"
            )
            sim.engine.schedule_at(
                self.RESTORE, lambda: failover.restore_server(5),
                kind="test:restore",
            )
        sim.run()
        return sim

    def test_restored_joiner_finishes_warming_and_activates(self):
        calm, crashed = self.run(crash=False), self.run(crash=True)
        assert crashed.membership.state(5) is ServerLifecycle.ACTIVE
        placement = crashed.placement_result.placement
        # Every copy landed, the one the crash cut short too.
        warmed = set(placement.videos_on(5))
        assert warmed == set(calm.placement_result.placement.videos_on(5))
        assert len(warmed) > 1


class TestSoleReplicaEvacuation:
    """A drained server holding the only copy of a video copies it
    elsewhere before it departs, so no title leaves the catalog."""

    def test_drained_sole_replicas_survive_departure(self):
        data = _elastic_config().to_dict()
        data["system"]["avg_copies"] = 1.0
        data["elastic"] = {
            "events": [{"time": 40.0, "action": "scale_in", "server_id": 2}],
        }
        sim = Simulation(SimulationConfig.from_dict(data))
        placement = sim.placement_result.placement
        sole = [
            vid for vid in placement.videos_on(2) if placement.copies(vid) == 1
        ]
        assert sole  # one copy each: server 2 holds titles nobody else has
        sim.run()
        assert sim.membership.state(2) is ServerLifecycle.DEPARTED
        for vid in sole:
            holders = placement.holders(vid)
            assert holders and 2 not in holders
            assert all(sim.controller.servers[s].holds(vid) for s in holders)
