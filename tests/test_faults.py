"""The repro.faults robustness layer.

Three contracts under test:

* **determinism** — a :class:`FaultPlan` is declarative and all chaos
  randomness comes from named RNG substreams, so two runs with the same
  seed produce *byte-identical* JSONL traces and equal results (the
  hypothesis property sweeps arbitrary plans);
* **invariant checking** — the online checker stays silent on healthy
  runs and demonstrably catches a seeded state corruption, reporting
  the offending trace window;
* **graceful degradation** — the bounded retry queue preserves the
  admission accounting identities while resubmitting victims.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.cluster.request import reset_request_ids
from repro.faults import (
    CrashFaults,
    FaultPlan,
    InvariantViolation,
    LinkFaults,
    ReplicaFaults,
    RetryPolicy,
)
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.units import hours

TINY = SMALL_SYSTEM.scaled(n_videos=60, name="tiny")

FULL_PLAN = FaultPlan(
    crash=CrashFaults(mtbf=hours(0.5), mttr=hours(0.1), correlation=0.2),
    link=LinkFaults(mtbf=hours(0.7), mttr=hours(0.2)),
    replica=ReplicaFaults(mean_interval=hours(1.0)),
)


def chaos_config(plan, seed=5, **overrides):
    defaults = dict(
        system=TINY,
        theta=0.3,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        duration=hours(2),
        seed=seed,
        faults=plan,
        retry=RetryPolicy(),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def run_traced(config, path):
    """One fresh run; returns (result, exported trace bytes)."""
    reset_request_ids()  # request ids are process-global state
    tracer = Tracer(capacity=500_000)
    result = Simulation(config, tracer=tracer).run()
    tracer.export_jsonl(path)  # no provenance line: no timestamps
    return result, path.read_bytes()


class TestDeterministicChaos:
    def test_same_seed_byte_identical_trace(self, tmp_path):
        """The ISSUE's acceptance criterion, at full fault coverage."""
        config = chaos_config(FULL_PLAN, seed=13)
        res_a, trace_a = run_traced(config, tmp_path / "a.jsonl")
        res_b, trace_b = run_traced(config, tmp_path / "b.jsonl")
        assert trace_a == trace_b
        assert res_a == res_b  # provenance excluded from dataclass eq
        assert res_a.faults_injected > 0  # the run was actually chaotic

    def test_different_seeds_diverge(self, tmp_path):
        _, trace_a = run_traced(chaos_config(FULL_PLAN, seed=1),
                                tmp_path / "a.jsonl")
        _, trace_b = run_traced(chaos_config(FULL_PLAN, seed=2),
                                tmp_path / "b.jsonl")
        assert trace_a != trace_b

    @settings(max_examples=5, deadline=None)
    @given(
        plan=st.builds(
            FaultPlan,
            crash=st.none() | st.builds(
                CrashFaults,
                mtbf=st.floats(min_value=600.0, max_value=3600.0),
                mttr=st.floats(min_value=60.0, max_value=900.0),
                correlation=st.floats(min_value=0.0, max_value=0.5),
            ),
            link=st.none() | st.builds(
                LinkFaults,
                mtbf=st.floats(min_value=600.0, max_value=3600.0),
                mttr=st.floats(min_value=60.0, max_value=900.0),
            ),
            replica=st.none() | st.builds(
                ReplicaFaults,
                mean_interval=st.floats(min_value=1800.0, max_value=7200.0),
            ),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_plan_is_seed_deterministic(self, plan, seed):
        # hypothesis disallows function-scoped fixtures under @given,
        # so the tmp dir is managed manually.
        import tempfile
        from pathlib import Path

        config = chaos_config(plan, seed=seed, duration=hours(1))
        with tempfile.TemporaryDirectory() as td:
            res_a, trace_a = run_traced(config, Path(td) / "a.jsonl")
            res_b, trace_b = run_traced(config, Path(td) / "b.jsonl")
        assert trace_a == trace_b
        assert res_a == res_b


class TestFaultInjector:
    def test_crashes_respect_server_restriction(self):
        plan = FaultPlan(
            crash=CrashFaults(mtbf=hours(0.25), mttr=hours(0.05),
                              servers=(1,))
        )
        sim = Simulation(chaos_config(plan, duration=hours(3)))
        result = sim.run()
        assert result.faults_injected > 0
        assert {r.server_id for r in sim.failover.reports} == {1}

    def test_injection_waits_for_plan_start(self):
        plan = FaultPlan(
            crash=CrashFaults(mtbf=hours(0.25), mttr=hours(0.05)),
            start=hours(2),
        )
        result = Simulation(chaos_config(plan, duration=hours(2))).run()
        assert result.faults_injected == 0

    def test_injector_is_single_use(self):
        sim = Simulation(chaos_config(FULL_PLAN))
        with pytest.raises(RuntimeError):
            sim.fault_injector.start()  # Simulation already started it


class TestInvariantChecker:
    def test_clean_on_healthy_run(self):
        sim = Simulation(chaos_config(None, invariants=True, retry=None))
        sim.run()
        assert sim.invariant_checker.checks_run > 0

    def test_clean_under_full_chaos(self):
        sim = Simulation(chaos_config(FULL_PLAN, invariants=True))
        result = sim.run()
        assert sim.invariant_checker.checks_run > 0
        assert result.faults_injected > 0

    def test_catches_seeded_corruption(self):
        """Mutate a live stream's transfer state mid-run: the checker
        must abort the run with the offending trace window attached."""
        tracer = Tracer()
        sim = Simulation(
            chaos_config(None, invariants=True, retry=None), tracer=tracer
        )

        def corrupt():
            now = sim.engine.now
            for server in sim.controller.servers.values():
                for r in server.iter_active():
                    if r.bytes_viewed(now) > 1.0:
                        # Pretend the bytes were never sent: the viewer
                        # is now ahead of the transmission, which a
                        # minimum-flow stream can never legally be.
                        r.bytes_sent = 0.0
                        r.last_sync = now
                        return

        sim.engine.schedule_at(hours(1), corrupt, kind="test:corrupt")
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        violation = exc.value
        assert violation.invariant == "no_underrun"
        assert violation.subject.startswith("request ")
        assert violation.time >= hours(1)
        assert violation.window  # the recent-event window is attached
        assert tracer.counts.get(TraceKind.INVARIANT_VIOLATION) == 1

    def test_env_switch_attaches_checker(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        sim = Simulation(chaos_config(None, retry=None))
        assert sim.invariant_checker is not None
        monkeypatch.setenv("REPRO_INVARIANTS", "0")
        sim = Simulation(chaos_config(None, retry=None))
        assert sim.invariant_checker is None


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        p = RetryPolicy(base_delay=5.0, max_delay=40.0, jitter=0.0)
        delays = [p.delay_for(k, 0.5) for k in (1, 2, 3, 4, 5)]
        assert delays == [5.0, 10.0, 20.0, 40.0, 40.0]

    def test_jitter_bounds(self):
        p = RetryPolicy(base_delay=10.0, jitter=0.5)
        assert p.delay_for(1, 0.0) == pytest.approx(5.0)
        assert p.delay_for(1, 1.0) == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=10.0, max_delay=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pending=0)

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(min_value=0.1, max_value=60.0),
        cap_mult=st.floats(min_value=1.0, max_value=20.0),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        attempt=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_delays_bounded_and_seed_deterministic(
        self, base, cap_mult, jitter, attempt, seed
    ):
        """The live-chaos backoff contract (docs/ROBUSTNESS.md): every
        delay ``delay_for`` can produce lies inside the jittered cap,
        and a same-seed draw sequence yields byte-identical delays —
        the resilient client's retry timeline replays exactly."""
        from repro.sim.rng import RandomStreams

        policy = RetryPolicy(
            base_delay=base, max_delay=base * cap_mult, jitter=jitter
        )
        delays_a = [
            policy.delay_for(attempt, float(draw))
            for draw in RandomStreams(seed=seed).get("retry.jitter").random(8)
        ]
        delays_b = [
            policy.delay_for(attempt, float(draw))
            for draw in RandomStreams(seed=seed).get("retry.jitter").random(8)
        ]
        assert delays_a == delays_b  # bit-for-bit, not approx
        lo = policy.base_delay * (1.0 - policy.jitter)
        hi = policy.max_delay * (1.0 + policy.jitter)
        for delay in delays_a:
            assert lo - 1e-12 <= delay <= hi * (1.0 + 1e-12)


class TestRetryQueue:
    def test_accounting_identities_under_overload(self):
        # 1.5x offered load guarantees rejections to feed the queue.
        config = chaos_config(
            None, load=1.5,
            retry=RetryPolicy(max_attempts=2, base_delay=60.0,
                              max_delay=240.0),
        )
        sim = Simulation(config)
        result = sim.run()
        m = sim.metrics
        assert result.retries > 0
        # Every resubmission counts as an arrival, so the per-attempt
        # identity survives; distinct viewers subtract the retries.
        assert m.accepted + m.rejected == m.arrivals
        assert m.distinct_arrivals == m.arrivals - m.retries
        assert m.retry_successes <= m.retries
        assert 0.0 <= result.availability <= 1.0

    def test_bounded_queue_exhausts_overflow(self):
        config = chaos_config(
            None, load=2.0,
            retry=RetryPolicy(max_attempts=1, base_delay=120.0,
                              max_pending=4),
        )
        result = Simulation(config).run()
        assert result.retry_exhausted > 0

    def test_crash_victims_are_resubmitted(self):
        plan = FaultPlan(crash=CrashFaults(mtbf=hours(0.5), mttr=hours(0.1)))
        sim = Simulation(chaos_config(plan, duration=hours(3)))
        result = sim.run()
        assert sim.metrics.dropped > 0     # crashes orphaned streams
        assert result.retries > 0          # ... and the queue retried them
        assert sim.metrics.retry_successes > 0


class TestFaultPlanValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CrashFaults(mtbf=0.0, mttr=10.0)
        with pytest.raises(ValueError):
            CrashFaults(mtbf=10.0, mttr=0.0)
        with pytest.raises(ValueError):
            CrashFaults(mtbf=10.0, mttr=1.0, correlation=1.5)
        with pytest.raises(ValueError):
            LinkFaults(mtbf=10.0, mttr=1.0, factor_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            LinkFaults(mtbf=10.0, mttr=1.0, factor_range=(0.9, 0.5))
        with pytest.raises(ValueError):
            ReplicaFaults(mean_interval=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(start=-1.0)

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FULL_PLAN.empty
        # An empty plan builds no injector.
        sim = Simulation(chaos_config(FaultPlan(), retry=None))
        assert sim.fault_injector is None
