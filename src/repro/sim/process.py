"""Generator-based processes and periodic timers on top of the engine.

Workload generators (Poisson arrivals, failure injectors, popularity
shifts) read most naturally as coroutines that alternate "wait some
time" / "do something".  :class:`Process` runs a generator that yields
non-negative delays; :class:`PeriodicTimer` is the fixed-interval
special case used by statistics samplers.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event


class Process:
    """Drive a generator of delays on an engine.

    The generator yields non-negative floats (seconds to sleep).  When it
    returns (StopIteration) the process completes; :meth:`stop` cancels
    the pending sleep and closes the generator.

    Example:
        >>> eng = Engine()
        >>> ticks = []
        >>> def gen():
        ...     for _ in range(3):
        ...         yield 1.0
        ...         ticks.append(eng.now)
        >>> p = Process(eng, gen())
        >>> eng.run()
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

    @property
    def done(self) -> bool:
        """True once the generator has finished or been stopped."""
        return self._done

    def _advance(self) -> None:
        try:
            delay = next(self._gen)
        except StopIteration:
            self._done = True
            self._pending = None
            return
        if not isinstance(delay, (int, float)) or not delay >= 0.0:
            self._done = True
            raise SimulationError(
                f"process {self.name!r} yielded invalid delay {delay!r}"
            )
        self._pending = self.engine.schedule(
            float(delay), self._advance, kind=self._kind
        )

    def stop(self) -> None:
        """Cancel the pending wakeup and close the generator."""
        if self._done:
            return
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        close = getattr(self._gen, "close", None)
        if close is not None:  # plain iterators have no close()
            close()
        self._done = True


class PeriodicTimer:
    """Call a function every ``interval`` seconds until stopped.

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
        self._stopped = False
        delay = self.interval if first is None else float(first) - engine.now
        self._pending: Optional[Event] = engine.schedule(
            delay, self._tick, kind=f"timer:{name}"
        )

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _tick(self) -> None:
        if self._stopped:
            return
        self.action()
        if not self._stopped:  # action may stop us
            self._pending = self.engine.schedule(
                self.interval, self._tick, kind=f"timer:{self.name}"
            )

    def stop(self) -> None:
        """Stop ticking; idempotent."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
