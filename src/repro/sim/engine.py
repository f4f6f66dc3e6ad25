"""The discrete-event simulation engine.

The engine owns the simulation clock and delegates the event agenda to
a pluggable :class:`~repro.sim.scheduler.EventScheduler` (a binary heap
by default; a calendar queue for very deep agendas — select via
``Engine(scheduler=...)`` or the ``REPRO_SCHEDULER`` environment
variable).  Design decisions that matter for the reproduction:

* **Determinism** — events at equal timestamps fire in scheduling order
  (FIFO via a sequence counter).  Agenda entries are ``(time, seq,
  event)`` tuples, so every ordering comparison runs in C and every
  scheduler implementation pops the identical ``(time, seq)`` sequence
  (enforced by a hypothesis property).  Combined with named RNG
  substreams (:mod:`repro.sim.rng`) this makes every experiment
  bit-reproducible from its seed.
* **Lazy cancellation** — the admission/EFTF machinery reschedules a
  request's "next event" every time its bandwidth allocation changes; a
  naive in-structure removal would be O(n).  Cancelled events are
  skipped (and counted) when popped instead.
* **Bounded runs** — ``run_until(t)`` advances the clock to exactly
  ``t`` even if the agenda empties earlier, so utilization denominators
  are well-defined.

Hot-path notes: ``run_until`` dispatches to the scheduler's
:meth:`~repro.sim.scheduler.EventScheduler.drain` loop (specialized per
structure — see that module's docstring for why), and ``schedule``
constructs :class:`Event` handles without a Python-level ``__init__``
call.  Engine state accessed per event lives in ``__slots__``.  The
``_trace_fns`` list object is never reassigned after construction —
drain loops bind it once and rely on mutations (``add_trace`` /
``remove_trace``) staying visible mid-run.

The engine deliberately knows nothing about video servers; it is a
general substrate (and is tested as one).
"""

from __future__ import annotations

from heapq import heappush as _heappush
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional

from repro.sim.events import Event, EventState
from repro.sim.scheduler import (
    EventScheduler,
    HeapScheduler,
    resolve_scheduler,
)

#: Module-level bindings: the hot paths test ``event._state is
#: _PENDING`` directly rather than through the ``Event.pending``
#: property (a descriptor call per event is measurable at millions of
#: events), and build handles via ``object.__new__`` (skipping the
#: ``Event.__init__`` frame, also measurable).
_PENDING = EventState.PENDING
_new_event = object.__new__


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class Engine:
    """Event loop with a monotonic clock.

    Args:
        start_time: initial clock value.
        scheduler: agenda implementation — an
            :class:`~repro.sim.scheduler.EventScheduler` instance, a
            registry key (``"heap"``, ``"calendar"``), or None to use
            ``REPRO_SCHEDULER`` / the heap default.

    Example:
        >>> eng = Engine()
        >>> fired = []
        >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
        >>> eng.run_until(10.0)
        >>> eng.now, fired
        (10.0, [5.0])
    """

    __slots__ = (
        "_now", "_sched", "_heap", "_seq", "_events_fired",
        "_events_cancelled", "_running", "_trace_fns", "profiler",
    )

    def __init__(self, start_time: float = 0.0, scheduler=None) -> None:
        self._now = float(start_time)
        self._sched: EventScheduler = resolve_scheduler(scheduler)
        #: Fast-path seam: when the agenda is a plain HeapScheduler,
        #: ``schedule``/``schedule_at`` push straight onto its list with
        #: the C ``heappush`` instead of a Python method call.  Any
        #: subclass (or other scheduler) goes through ``push()``.
        self._heap = (
            self._sched._heap if type(self._sched) is HeapScheduler else None
        )
        self._seq = 0
        self._events_fired = 0
        self._events_cancelled = 0
        self._running = False
        #: Subscribers called as ``fn(event)`` just before each event
        #: fires — debugging, test instrumentation, and the obs tracer
        #: coexist here.  Manage via :meth:`add_trace`/:meth:`remove_trace`.
        #: The list object is never replaced (drain loops bind it once).
        self._trace_fns: List[Callable[[Event], None]] = []
        #: Optional :class:`repro.obs.profiler.EventProfiler`; when set,
        #: each callback's wall-clock is accounted per event kind.  The
        #: off-path cost is a single ``is None`` check.
        self.profiler = None

    # ------------------------------------------------------------------
    # Clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def scheduler(self) -> EventScheduler:
        """The agenda implementation in use."""
        return self._sched

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events skipped so far."""
        return self._events_cancelled

    @property
    def pending_count(self) -> int:
        """Number of events currently on the agenda (including cancelled
        handles not yet popped)."""
        return len(self._sched)

    # ------------------------------------------------------------------
    # Trace subscribers
    # ------------------------------------------------------------------
    def add_trace(self, fn: Callable[[Event], None]) -> None:
        """Subscribe *fn* to be called with each event before it fires.

        Multiple subscribers coexist and run in subscription order.
        """
        self._trace_fns.append(fn)

    def remove_trace(self, fn: Callable[[Event], None]) -> None:
        """Unsubscribe *fn* (ValueError if not subscribed)."""
        self._trace_fns.remove(fn)

    def peek_time(self) -> Optional[float]:
        """Time of the next *live* event, or None if the agenda is empty.

        Pops and discards dead (cancelled) handles encountered on the way.
        """
        sched = self._sched
        while True:
            entry = sched.peek()
            if entry is None:
                return None
            if entry[2]._state is _PENDING:
                return entry[0]
            sched.pop()
            self._events_cancelled += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        payload: Any = None,
        kind: str = "",
    ) -> Event:
        """Schedule *callback* to run ``delay`` seconds from now.

        Args:
            delay: non-negative offset from the current clock.
            callback: zero-argument callable.
            payload: opaque annotation carried on the handle.
            kind: string tag for tracing.

        Returns:
            The :class:`Event` handle (cancellable).

        Raises:
            SimulationError: if *delay* is negative or NaN.
        """
        if not delay >= 0.0:  # also catches NaN
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        # Inlined schedule_at: this is called once per event fired, so
        # the extra frame and the Event.__init__ frame are both skipped.
        time = float(self._now + delay)
        self._seq = seq = self._seq + 1
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.payload = payload
        event.kind = kind
        event._state = _PENDING
        heap = self._heap
        if heap is not None:
            _heappush(heap, (time, seq, event))
        else:
            self._sched.push((time, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        payload: Any = None,
        kind: str = "",
    ) -> Event:
        """Schedule *callback* at absolute simulation *time* (>= now)."""
        if not time >= self._now:  # also catches NaN
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        time = float(time)
        self._seq = seq = self._seq + 1
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.payload = payload
        event.kind = kind
        event._state = _PENDING
        heap = self._heap
        if heap is not None:
            _heappush(heap, (time, seq, event))
        else:
            self._sched.push((time, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next live event, advancing the clock to it.

        Returns:
            True if an event fired, False if the agenda was empty.
        """
        sched = self._sched
        while True:
            entry = sched.pop()
            if entry is None:
                return False
            event = entry[2]
            if event._state is not _PENDING:
                self._events_cancelled += 1
                continue
            self._now = entry[0]
            if self._trace_fns:
                for fn in self._trace_fns:
                    fn(event)
            self._events_fired += 1
            profiler = self.profiler
            if profiler is None:
                event._fire()
            else:
                t0 = perf_counter()
                event._fire()
                profiler.record(event.kind, perf_counter() - t0)
            return True

    def run_until(self, until: float) -> None:
        """Run events with ``time <= until`` and leave the clock at *until*.

        Events scheduled exactly at *until* do fire.  The clock never
        moves backwards: if *until* is in the past this raises.

        This is the simulator's outermost hot loop; the actual pass is
        the scheduler's :meth:`~repro.sim.scheduler.EventScheduler.drain`,
        specialized per agenda structure.  The contract (identical for
        every scheduler, enforced by tests): each agenda head is
        examined exactly once — dead handles are popped and counted,
        the first live head beyond *until* ends the run while staying
        on the agenda, and everything else fires.
        """
        if not until >= self._now:
            raise SimulationError(
                f"run_until({until!r}) is before now={self._now!r}"
            )
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            self._sched.drain(self, until)
            self._now = float(until)
        finally:
            self._running = False

    def run(self) -> None:
        """Run until the agenda is exhausted."""
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            while self.step():
                pass
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Debug helpers
    # ------------------------------------------------------------------
    def iter_pending(self) -> Iterator[Event]:
        """Yield pending events in an unspecified order (debug only)."""
        return (
            entry[2] for entry in self._sched.entries() if entry[2].pending
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine now={self._now:.6g} pending={self.pending_count} "
            f"fired={self._events_fired}>"
        )
