"""Unit tests for the DES engine (repro.sim.engine / events)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import EventState


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

    def test_traced_run_raises_no_deprecation_warning(self):
        # No deprecated entry point is left on the traced path: a fully
        # traced simulation run completes with DeprecationWarning
        # promoted to an error.
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


class _SpecEvent:
    def __init__(self, time, seq, callback):
        self.time, self.seq, self.callback = time, seq, callback
        self.pending = True

    def cancel(self):
        was_pending, self.pending = self.pending, False
        return was_pending


class SpecEngine:
    """The specification the engine is checked against: a list kept
    sorted by ``(time, seq)`` and consumed from the front."""

    def __init__(self):
        self.now, self.seq = 0.0, 0
        self.events_fired = self.events_cancelled = 0
        self.agenda = []

    pending_count = property(lambda self: len(self.agenda))

    def iter_pending(self):
        return (e for e in self.agenda if e.pending)

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        self.seq += 1
        event = _SpecEvent(time, self.seq, callback)
        self.agenda.append(event)
        self.agenda.sort(key=lambda e: (e.time, e.seq))
        return event

    def peek_time(self):
        while self.agenda and not self.agenda[0].pending:
            self.agenda.pop(0)
            self.events_cancelled += 1
        return self.agenda[0].time if self.agenda else None

    def step(self, until=float("inf")):
        head = self.peek_time()
        if head is None or head > until:
            return False
        event = self.agenda.pop(0)
        event.pending = False
        self.now = event.time
        self.events_fired += 1
        event.callback()
        return True

    def run_until(self, until):
        while self.step(until):
            pass
        self.now = until


class _Boom(Exception):
    pass


def _drive(machine, ops):
    """Apply *ops* to *machine* (an Engine or the SpecEngine) and return
    everything an observer can see after each one."""
    log, handles, seen = [], [], []

    def callback(ident, behaviour):
        def fire():
            log.append((machine.now, ident))
            if behaviour == "spawn":
                handles.append(machine.schedule(1.0, callback(-ident, "plain")))
                machine.schedule(0.5, callback(0, "plain")).cancel()
            elif behaviour == "raise":
                raise _Boom

        return fire

    for ident, (name, *args) in enumerate(ops, 1):
        result = None
        try:
            if name == "schedule":
                handles.append(
                    machine.schedule(args[0], callback(ident, args[1]))
                )
            elif name == "schedule_at":
                handles.append(machine.schedule_at(
                    machine.now + args[0], callback(ident, args[1])
                ))
            elif name == "cancel":
                if handles:
                    result = handles[args[0] % len(handles)].cancel()
            elif name == "run_until":
                machine.run_until(machine.now + args[0])
            else:
                result = getattr(machine, name)()
        except _Boom:
            result = "boom"
        seen.append((
            name, result, machine.now,
            machine.events_fired, machine.events_cancelled,
            machine.pending_count,
            sorted((e.time, e.seq) for e in machine.iter_pending()),
            list(log),
        ))
    return seen


#: Sums of these are exact in binary floating point, so independently
#: scheduled events collide on the very same timestamp (a repeated
#: entry weights the draw).
_OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])
_BEHAVIOURS = st.sampled_from(["plain", "plain", "spawn", "raise"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _OFFSETS, _BEHAVIOURS),
        st.tuples(st.just("schedule_at"), _OFFSETS, _BEHAVIOURS),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("peek_time")),
        st.tuples(st.just("step")),
        st.tuples(st.just("run_until"), _OFFSETS),
    ),
    max_size=60,
)


class TestEngineMatchesSpecification:
    """Engine == specification: whatever interleaving of scheduling,
    cancelling, peeking, stepping and bounded runs, the engine and a
    sorted list fire the same events in the same order with the same
    counters after every operation."""

    @settings(max_examples=300, deadline=None)
    @given(_OPS)
    # A dead head, a raising callback and a live entry beyond the bound:
    # the counters must be written back through the exception, and the
    # overshoot entry must still be pending afterwards.
    @example([
        ("schedule", 1.0, "plain"), ("cancel", 0),
        ("schedule", 1.0, "raise"), ("schedule", 3.5, "spawn"),
        ("run_until", 2.0), ("run_until", 2.0), ("step",), ("step",),
    ])
    def test_random_interleavings(self, ops):
        assert _drive(Engine(), ops) == _drive(SpecEngine(), ops)

    def test_chain_with_cancellations(self):
        # 500 self-rescheduling ticks with a cancelled handle behind
        # every seventh: the workload shape a simulation produces.
        engine = Engine()
        fired = []

        def tick():
            n = len(fired) + 1
            fired.append((engine.now, n))
            if n < 500:
                engine.schedule(0.7 * (n % 5) + 0.1, tick)
                if n % 7 == 0:
                    engine.schedule(0.3, tick).cancel()

        engine.schedule(1.0, tick)
        engine.run_until(2000.0)
        assert [n for _, n in fired] == list(range(1, 501))
        assert fired[249] == (375.9, 250)
        assert fired[-1] == (750.9, 500)
        assert engine.events_fired == 500
        assert engine.events_cancelled == 71
        assert engine.pending_count == 0
        assert engine.now == 2000.0
