"""Unit tests for the DES engine (repro.sim.engine / events)."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.events import Event, EventState


class TestScheduling:
    def test_schedule_and_fire(self, engine):
        fired = []
        engine.schedule(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_schedule_at_absolute_time(self, engine):
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0]

    def test_events_fire_in_time_order(self, engine):
        order = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            engine.schedule(t, lambda t=t: order.append(t))
        engine.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_time_events_fire_fifo(self, engine):
        order = []
        for i in range(10):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_zero_delay_allowed(self, engine):
        fired = []
        engine.schedule(0.0, lambda: fired.append(True))
        engine.run()
        assert fired == [True]

    def test_callbacks_can_schedule_more_events(self, engine):
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, lambda: order.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(True))
        assert handle.cancel()
        engine.run()
        assert fired == []
        assert handle.state is EventState.CANCELLED

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_cancel_after_fire_returns_false(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        assert handle.state is EventState.FIRED
        assert handle.cancel() is False

    def test_cancelled_events_counted(self, engine):
        for _ in range(3):
            engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_cancelled == 3
        assert engine.events_fired == 1


class TestRunUntil:
    def test_clock_advances_to_until_with_empty_agenda(self, engine):
        engine.run_until(100.0)
        assert engine.now == 100.0

    def test_events_at_exact_until_fire(self, engine):
        fired = []
        engine.schedule(10.0, lambda: fired.append(True))
        engine.run_until(10.0)
        assert fired == [True]

    def test_events_beyond_until_do_not_fire(self, engine):
        fired = []
        engine.schedule(10.0, lambda: fired.append(True))
        engine.run_until(9.999)
        assert fired == []
        assert engine.pending_count == 1

    def test_run_until_is_resumable(self, engine):
        fired = []
        engine.schedule(5.0, lambda: fired.append("a"))
        engine.schedule(15.0, lambda: fired.append("b"))
        engine.run_until(10.0)
        assert fired == ["a"]
        engine.run_until(20.0)
        assert fired == ["a", "b"]

    def test_run_until_past_raises(self, engine):
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_not_reentrant(self, engine):
        def bad():
            engine.run_until(100.0)

        engine.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            engine.run_until(10.0)


class TestIntrospection:
    def test_peek_time_skips_cancelled(self, engine):
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        assert engine.peek_time() == 2.0

    def test_peek_time_empty(self, engine):
        assert engine.peek_time() is None

    def test_step_returns_false_on_empty(self, engine):
        assert engine.step() is False

    def test_trace_hook_sees_events(self, engine):
        seen = []
        engine.add_trace(lambda ev: seen.append((ev.time, ev.kind)))
        engine.schedule(1.0, lambda: None, kind="ping")
        engine.run()
        assert seen == [(1.0, "ping")]

    def test_no_internal_caller_uses_deprecated_trace(self):
        # The Engine.trace shim is gone; a fully traced simulation run
        # must not lean on any other deprecated entry point either.
        import warnings

        from repro import obs
        from repro.cluster.system import SMALL_SYSTEM
        from repro.simulation import Simulation, SimulationConfig

        config = SimulationConfig(
            system=SMALL_SYSTEM, theta=0.0, duration=600.0, seed=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Simulation(config, tracer=obs.Tracer()).run()

    def test_iter_pending_excludes_cancelled(self, engine):
        keep = engine.schedule(1.0, lambda: None, kind="keep")
        engine.schedule(2.0, lambda: None, kind="drop").cancel()
        kinds = [e.kind for e in engine.iter_pending()]
        assert kinds == ["keep"]
        assert keep.pending


class TestEventObject:
    def test_ordering_by_time_then_seq(self):
        a = Event(1.0, 1, lambda: None)
        b = Event(1.0, 2, lambda: None)
        c = Event(0.5, 3, lambda: None)
        assert c < a < b

    def test_payload_and_kind_are_carried(self, engine):
        handle = engine.schedule(1.0, lambda: None, payload={"x": 1}, kind="tagged")
        assert handle.payload == {"x": 1}
        assert handle.kind == "tagged"


class TestTraceSubscribers:
    def test_add_trace_multiple_subscribers_in_order(self, engine):
        calls = []
        engine.add_trace(lambda ev: calls.append(("a", ev.kind)))
        engine.add_trace(lambda ev: calls.append(("b", ev.kind)))
        engine.schedule(1.0, lambda: None, kind="ping")
        engine.run()
        assert calls == [("a", "ping"), ("b", "ping")]

    def test_remove_trace_stops_delivery(self, engine):
        seen = []
        fn = lambda ev: seen.append(ev.kind)  # noqa: E731
        engine.add_trace(fn)
        engine.schedule(1.0, lambda: None, kind="one")
        engine.run()
        engine.remove_trace(fn)
        engine.schedule(1.0, lambda: None, kind="two")
        engine.run()
        assert seen == ["one"]

    def test_remove_unsubscribed_raises(self, engine):
        with pytest.raises(ValueError):
            engine.remove_trace(lambda ev: None)


class TestCancellationAccounting:
    """events_cancelled must count each dead handle exactly once,
    however peek_time() and step() interleave over the agenda."""

    def test_peek_then_step_does_not_double_count(self, engine):
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None).cancel()
        engine.schedule(3.0, lambda: None)
        assert engine.peek_time() == 3.0  # discards both dead handles
        assert engine.events_cancelled == 2
        assert engine.step() is True
        assert engine.events_cancelled == 2  # not recounted by step()
        assert engine.events_fired == 1

    def test_step_alone_counts_each_once(self, engine):
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        assert engine.step() is True
        assert engine.events_cancelled == 1
        assert engine.step() is False
        assert engine.events_cancelled == 1

    def test_repeated_peek_is_idempotent(self, engine):
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        for _ in range(3):
            assert engine.peek_time() == 2.0
        assert engine.events_cancelled == 1

    def test_cancel_after_peek_counts_on_next_sweep(self, engine):
        live = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.peek_time() == 1.0
        live.cancel()  # now dead, but already surveyed once
        assert engine.peek_time() == 2.0
        assert engine.events_cancelled == 1

    def test_run_until_accounts_interleaved_cancellations(self, engine):
        handles = [engine.schedule(float(i), lambda: None) for i in range(1, 7)]
        for h in handles[::2]:
            h.cancel()
        engine.run_until(10.0)
        assert engine.events_fired == 3
        assert engine.events_cancelled == 3
        assert engine.pending_count == 0

    def test_pending_count_vs_live_after_mass_cancellation(self, engine):
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(50)]
        for h in handles[5:]:
            h.cancel()
        # pending_count includes dead handles still on the heap ...
        assert engine.pending_count == 50
        # ... while iter_pending() yields only the live ones.
        assert sum(1 for _ in engine.iter_pending()) == 5
        engine.run()
        assert engine.events_fired == 5
        assert engine.events_cancelled == 45
        assert engine.pending_count == 0
        assert sum(1 for _ in engine.iter_pending()) == 0
