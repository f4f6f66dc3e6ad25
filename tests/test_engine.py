"""Unit tests for the DES engine (repro.sim.engine / events)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import EventState

from conftest import is_pending, live_events


class TestScheduling:
    def test_schedule_and_fire(self, engine):
        fired = []
        engine.schedule(5.0, lambda: fired.append(engine.now))
        engine.run_until(5.0)
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_schedule_at_absolute_time(self, engine):
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(engine.now))
        engine.run_until(3.0)
        assert fired == [3.0]

    def test_events_fire_in_time_order(self, engine):
        order = []
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            engine.schedule(t, lambda t=t: order.append(t))
        engine.run_until(5.0)
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_time_events_fire_fifo(self, engine):
        order = []
        for i in range(10):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run_until(1.0)
        assert order == list(range(10))

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run_until(1.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_zero_delay_allowed(self, engine):
        fired = []
        engine.schedule(0.0, lambda: fired.append(True))
        engine.run_until(0.0)
        assert fired == [True]

    def test_callbacks_can_schedule_more_events(self, engine):
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, lambda: order.append("second"))

        engine.schedule(1.0, first)
        engine.run_until(2.0)
        assert order == ["first", "second"]
        assert engine.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(True))
        assert handle.cancel()
        engine.run_until(1.0)
        assert fired == []
        assert handle._state is EventState.CANCELLED

    def test_cancel_is_idempotent(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_cancel_after_fire_returns_false(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.run_until(1.0)
        assert handle._state is EventState.FIRED
        assert handle.cancel() is False

    def test_cancelled_events_counted(self, engine):
        for _ in range(3):
            engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(2.0, lambda: None)
        engine.run_until(2.0)
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
        handle = engine.schedule(10.0, lambda: fired.append(True))
        engine.run_until(9.999)
        assert fired == []
        assert handle._state is EventState.PENDING
        assert live_events(engine) == [handle]

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
    def test_trace_hook_sees_events(self, engine):
        seen = []
        engine.add_trace(lambda ev: seen.append((ev.time, ev.kind)))
        engine.schedule(1.0, lambda: None, kind="ping")
        engine.run_until(1.0)
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
        engine.run_until(1.0)
        assert calls == [("a", "ping"), ("b", "ping")]


class TestCancellationAccounting:
    """events_cancelled must count each dead handle exactly once, however
    cancellations and bounded runs interleave over the agenda."""

    def test_run_until_accounts_interleaved_cancellations(self, engine):
        handles = [engine.schedule(float(i), lambda: None) for i in range(1, 7)]
        for h in handles[::2]:
            h.cancel()
        engine.run_until(10.0)
        assert engine.events_fired == 3
        assert engine.events_cancelled == 3
        assert live_events(engine) == []


class _SpecEvent:
    def __init__(self, time, seq, callback):
        self.time, self.seq, self.callback = time, seq, callback
        self._state = EventState.PENDING

    def cancel(self):
        was_pending = self._state is EventState.PENDING
        if was_pending:
            self._state = EventState.CANCELLED
        return was_pending


class SpecEngine:
    """The specification the engine is checked against: a list kept
    sorted by ``(time, seq)`` and consumed from the front."""

    def __init__(self):
        self.now, self.seq = 0.0, 0
        self.events_fired = self.events_cancelled = 0
        self.agenda = []

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        self.seq += 1
        event = _SpecEvent(time, self.seq, callback)
        self.agenda.append(event)
        self.agenda.sort(key=lambda e: (e.time, e.seq))
        return event

    def run_until(self, until):
        while self.agenda:
            head = self.agenda[0]
            if head._state is not EventState.PENDING:
                self.agenda.pop(0)
                self.events_cancelled += 1
                continue
            if head.time > until:
                break
            self.agenda.pop(0)
            head._state = EventState.FIRED
            self.now = head.time
            self.events_fired += 1
            head.callback()
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
        except _Boom:
            result = "boom"
        seen.append((
            name, result, machine.now,
            machine.events_fired, machine.events_cancelled,
            sorted((h.time, h.seq) for h in handles if is_pending(h)),
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
        st.tuples(st.just("run_until"), _OFFSETS),
    ),
    max_size=60,
)


class TestEngineMatchesSpecification:
    """Engine == specification: whatever interleaving of scheduling,
    cancelling and bounded runs, the engine and a sorted list fire the
    same events in the same order with the same counters after every
    operation."""

    @settings(max_examples=300, deadline=None)
    @given(_OPS)
    # A dead head, a raising callback and a live entry beyond the bound:
    # the counters must be written back through the exception, and the
    # overshoot entry must still be pending afterwards.
    @example([
        ("schedule", 1.0, "plain"), ("cancel", 0),
        ("schedule", 1.0, "raise"), ("schedule", 3.5, "spawn"),
        ("run_until", 2.0), ("run_until", 2.0), ("run_until", 3.5),
        ("run_until", 1.0),
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
        assert live_events(engine) == []
        assert engine.now == 2000.0
