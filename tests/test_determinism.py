"""Determinism pins: identical seeds must reproduce identical runs.

Bit-level reproducibility is a stated design goal (DESIGN.md): FIFO
event ordering, named RNG substreams, deterministic tie-breaks in the
allocator, migration search and placement.  These tests pin it across
every major feature combination so a regression (e.g. an accidental
set-iteration dependence) is caught immediately.
"""


from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.core.replication import ReplicationPolicy
from repro.units import hours

TINY = SMALL_SYSTEM.scaled(n_videos=80, name="tiny")


def fingerprint(result):
    return (
        result.utilization,
        result.arrivals,
        result.accepted,
        result.migrations,
        result.finished,
        result.megabits_sent,
        result.events_fired,
    )


def run_twice(**overrides):
    base = dict(system=TINY, theta=0.3, duration=hours(3), seed=99)
    base.update(overrides)
    a = Simulation(SimulationConfig(**base)).run()
    b = Simulation(SimulationConfig(**base)).run()
    return fingerprint(a), fingerprint(b)


class TestBitReproducibility:
    def test_plain_run(self):
        a, b = run_twice()
        assert a == b

    def test_with_staging_and_migration(self):
        a, b = run_twice(
            staging_fraction=0.2,
            migration=MigrationPolicy.paper_default(),
            client_receive_bandwidth=30.0,
        )
        assert a == b

    def test_with_switch_delay(self):
        a, b = run_twice(
            staging_fraction=0.2,
            migration=MigrationPolicy(
                enabled=True, max_chain_length=2,
                max_hops_per_request=None, switch_delay=2.0,
            ),
        )
        assert a == b

    def test_with_replication(self):
        a, b = run_twice(
            theta=-1.0,
            migration=MigrationPolicy.paper_default(),
            replication=ReplicationPolicy(trigger_rejections=2),
        )
        assert a == b

    def test_with_interactivity(self):
        a, b = run_twice(pause_hazard=1 / 900.0, mean_pause=120.0)
        assert a == b

    def test_with_client_mix(self):
        a, b = run_twice(client_mix=((0.5, 0.0), (0.5, 0.2)))
        assert a == b

    def test_with_warmup(self):
        a, b = run_twice(duration=hours(4), warmup=hours(1))
        assert a == b

    def test_different_placements_each_deterministic(self):
        for placement in ("even", "predictive", "partial"):
            a, b = run_twice(placement=placement)
            assert a == b, placement

    def test_everything_at_once(self):
        a, b = run_twice(
            theta=-0.5,
            staging_fraction=0.2,
            migration=MigrationPolicy.paper_default(),
            replication=ReplicationPolicy(trigger_rejections=2),
            pause_hazard=1 / 1200.0,
            client_receive_bandwidth=30.0,
            warmup=hours(0.5),
        )
        assert a == b
