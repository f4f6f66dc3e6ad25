"""Generator-based processes and periodic timers on top of the engine.

Workload generators (the arrival processes) read most naturally as
coroutines that alternate "wait until t" / "do something".
:class:`Process` runs a generator that yields wake-up times;
:class:`PeriodicTimer` is the fixed-interval special case used by
statistics samplers.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event


class Process:
    """Drive a generator of wake-up times on an engine.

    The generator yields absolute times (floats, each >= the clock).
    The process wakes at each one behind every other event due at that
    instant (``Engine.schedule_at(..., last=True)``).  When the
    generator returns the process completes; :meth:`stop` cancels the
    pending wake-up and closes the generator.

    Example:
        >>> eng = Engine()
        >>> ticks = []
        >>> def gen():
        ...     for t in (1.0, 2.0, 3.0):
        ...         yield t
        ...         ticks.append(eng.now)
        >>> p = Process(eng, gen())
        >>> eng.run_until(3.0)
        >>> ticks
        [1.0, 2.0, 3.0]
    """

    def __init__(
        self,
        engine: Engine,
        generator: Generator[float, None, None],
        name: str = "process",
    ) -> None:
        self.engine = engine
        self.name = name
        #: Event tag, built once — not formatted per wake-up.
        self._kind = f"process:{name}"
        self._gen = generator
        self._pending: Optional[Event] = None
        self._done = False
        self._advance()

    def _advance(self) -> None:
        try:
            time = next(self._gen)
        except StopIteration:
            self._done = True
            self._pending = None
            return
        if not isinstance(time, (int, float)):
            self._done = True
            raise SimulationError(
                f"process {self.name!r} yielded invalid wake-up time {time!r}"
            )
        # Raises SimulationError for a time behind the clock.
        self._pending = self.engine.schedule_at(
            time, self._advance, kind=self._kind, last=True
        )

    def stop(self) -> None:
        """Cancel the pending wakeup and close the generator (a no-op
        once it has completed)."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        close = getattr(self._gen, "close", None)
        if close is not None:  # plain iterators have no close()
            close()
        self._done = True


class PeriodicTimer:
    """Call a function every ``interval`` seconds, for as long as the
    engine runs.

    The first call happens at ``now + interval`` (or at ``first`` when
    given).  Used by the statistics sampler to take utilization
    snapshots.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        action: Callable[[], None],
        first: Optional[float] = None,
        name: str = "timer",
    ) -> None:
        if not interval > 0.0:
            raise SimulationError(f"interval must be positive, got {interval!r}")
        self.engine = engine
        self.interval = float(interval)
        self.action = action
        self.name = name
        delay = self.interval if first is None else float(first) - engine.now
        engine.schedule(delay, self._tick, kind=f"timer:{name}")

    def _tick(self) -> None:
        self.action()
        self.engine.schedule(
            self.interval, self._tick, kind=f"timer:{self.name}"
        )
