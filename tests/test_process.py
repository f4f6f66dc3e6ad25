"""Unit tests for generator processes and periodic timers."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.process import PeriodicTimer, Process


class TestProcess:
    def test_yields_become_sleeps(self, engine):
        ticks = []

        def gen():
            for t in (1.5, 3.0, 4.5):
                yield t
                ticks.append(engine.now)

        Process(engine, gen())
        engine.run_until(4.5)
        assert ticks == [1.5, 3.0, 4.5]

    def test_done_after_generator_exhausts(self, engine):
        # An exhausted generator leaves nothing on the agenda.
        Process(engine, iter([]))
        engine.run_until(10.0)
        assert engine.events_fired == 0

    def test_stop_cancels_pending_sleep(self, engine):
        ticks = []

        def gen():
            t = 0.0
            while True:
                t += 1.0
                yield t
                ticks.append(engine.now)

        p = Process(engine, gen())
        engine.run_until(2.5)
        p.stop()
        engine.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_is_idempotent(self, engine):
        p = Process(engine, iter([1.0]))
        p.stop()
        p.stop()
        engine.run_until(5.0)
        assert engine.events_fired == 0

    def test_invalid_yield_raises(self, engine):
        # A wake-up time behind the clock.
        def gen():
            yield -1.0

        with pytest.raises(SimulationError):
            Process(engine, gen())

    def test_non_numeric_yield_raises(self, engine):
        def gen():
            yield "soon"

        with pytest.raises(SimulationError):
            Process(engine, gen())

    def test_zero_delay_progresses(self, engine):
        count = []

        def gen():
            for _ in range(5):
                yield 0.0
                count.append(engine.now)

        Process(engine, gen())
        engine.run_until(0.0)
        assert count == [0.0] * 5

    def test_wakes_behind_every_event_due_at_its_instant(self, engine):
        # Even behind events scheduled at that instant after the wake-up
        # was queued, and behind what those events schedule there.
        order = []

        def gen():
            yield 2.0
            order.append("process")

        Process(engine, gen())
        engine.schedule_at(2.0, lambda: (
            order.append("late"),
            engine.schedule(0.0, lambda: order.append("chained")),
        ))
        engine.run_until(2.0)
        assert order == ["late", "chained", "process"]


class TestPeriodicTimer:
    def test_ticks_at_interval(self, engine):
        ticks = []
        PeriodicTimer(engine, 2.0, lambda: ticks.append(engine.now))
        engine.run_until(7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_first_fire_override(self, engine):
        ticks = []
        PeriodicTimer(engine, 2.0, lambda: ticks.append(engine.now), first=0.5)
        engine.run_until(5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_stop_halts_ticking(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 1.0, lambda: ticks.append(engine.now))
        engine.run_until(2.5)
        timer.stop()
        engine.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_action_may_stop_timer(self, engine):
        ticks = []
        timer = PeriodicTimer(engine, 1.0, lambda: (ticks.append(engine.now), timer.stop()))
        engine.run_until(5.0)
        assert ticks == [1.0]

    def test_nonpositive_interval_rejected(self, engine):
        with pytest.raises(SimulationError):
            PeriodicTimer(engine, 0.0, lambda: None)
