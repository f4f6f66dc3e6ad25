"""The discrete-event simulation engine.

The engine owns the simulation clock and the event agenda: one binary
heap (``heapq``) of ``(time, seq, event)`` tuples.  The model keeps one
pending boundary event per data server plus a few arrival/fault/VCR
timers, so the agenda stays tens to a few hundred entries deep — the
regime where the C-compared heap is the fastest structure there is
(docs/PERFORMANCE.md, "The agenda").  Design decisions that matter for
the reproduction:

* **Determinism** — events at equal timestamps fire in scheduling order
  (FIFO via a sequence counter), ``schedule_at(..., last=True)`` ones
  (the arrival process) after all others.  ``seq`` is unique per
  engine, so the tuple comparison runs in C on the ``(time, seq)``
  prefix and never reaches the event object.  Combined with named RNG
  substreams (:mod:`repro.sim.rng`) this makes every experiment
  bit-reproducible from its seed.
* **Lazy cancellation** — the EFTF machinery keeps one boundary event
  per server and reschedules it only when that boundary moves (a
  reallocation that leaves it in place keeps the pending event); a
  naive in-structure removal would be O(n).  Cancelled events are
  skipped (and counted) when popped instead.
* **Bounded runs** — ``run_until(t)`` advances the clock to exactly
  ``t`` even if the agenda empties earlier, so utilization denominators
  are well-defined.

Hot-path notes: ``run_until`` is the simulator's outermost loop and is
written as one fused pass (pop-first, counters batched in locals), and
``schedule`` constructs :class:`Event` handles without a Python-level
``__init__`` call.  Engine state accessed per event lives in
``__slots__``.  The ``_trace_fns`` list object is never reassigned
after construction — ``run_until`` binds it once and relies on
``add_trace`` mutations staying visible mid-run.  ``run_until`` is the
only event loop.

The engine deliberately knows nothing about video servers; it is a
general substrate (and is tested as one).
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from time import perf_counter
from typing import Any, Callable, List, Tuple

from repro.sim.events import Event, EventState

#: Module-level bindings: the hot paths test ``event._state is
#: _PENDING`` directly, and build handles via ``object.__new__``
#: (skipping the ``Event.__init__`` frame, measurable at millions of
#: events).
_PENDING = EventState.PENDING
_FIRED = EventState.FIRED
_new_event = object.__new__
#: Added to the sequence number of a ``schedule_at(..., last=True)``
#: event: it orders after every plain ``seq`` at the same instant and
#: stays unique, so the heap still never compares two events.
_LAST = 1 << 62


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


class Engine:
    """Event loop with a monotonic clock.

    Args:
        start_time: initial clock value.

    Example:
        >>> eng = Engine()
        >>> fired = []
        >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
        >>> eng.run_until(10.0)
        >>> eng.now, fired
        (10.0, [5.0])
    """

    __slots__ = (
        "_now", "_heap", "_seq", "_events_fired",
        "_events_cancelled", "_running", "_trace_fns", "profiler",
        "__weakref__",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: The agenda: a ``heapq`` list of ``(time, seq, event)``
        #: entries, cancelled handles included until they surface.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._events_fired = 0
        self._events_cancelled = 0
        self._running = False
        #: Subscribers called as ``fn(event)`` just before each event
        #: fires — debugging, test instrumentation, and the obs tracer
        #: coexist here.  Subscribe via :meth:`add_trace`.
        #: The list object is never replaced (``run_until`` binds it once).
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
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events skipped so far."""
        return self._events_cancelled

    # ------------------------------------------------------------------
    # Trace subscribers
    # ------------------------------------------------------------------
    def add_trace(self, fn: Callable[[Event], None]) -> None:
        """Subscribe *fn* to be called with each event before it fires.

        Multiple subscribers coexist and run in subscription order.
        """
        self._trace_fns.append(fn)

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
        _heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        payload: Any = None,
        kind: str = "",
        last: bool = False,
    ) -> Event:
        """Schedule *callback* at absolute simulation *time* (>= now).

        With *last*, the event fires behind every other event at that
        instant, including ones scheduled there later (FIFO among such
        events): how the arrival process keeps the same-instant rule
        (docs/SERVING.md), an arrival at *t* decided after all due at *t*.
        """
        if not time >= self._now:  # also catches NaN
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self._now!r}"
            )
        time = float(time)
        self._seq = seq = self._seq + 1
        if last:
            seq += _LAST
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.payload = payload
        event.kind = kind
        event._state = _PENDING
        _heappush(self._heap, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, until: float) -> None:
        """Run events with ``time <= until`` and leave the clock at *until*.

        Events scheduled exactly at *until* do fire.  The clock never
        moves backwards: if *until* is in the past this raises.

        This is the simulator's outermost hot loop.  Each agenda head
        is examined exactly once — dead handles are popped and counted
        (even beyond *until*), the first live head beyond *until* ends
        the run while staying on the agenda, and everything else fires.
        The counters are batched in locals and written back even when a
        callback raises (and before trace subscribers run, so they read
        current values).
        """
        if not until >= self._now:
            raise SimulationError(
                f"run_until({until!r}) is before now={self._now!r}"
            )
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        # Pop-first (no separate peek), one push-back per call for the
        # single overshoot entry.
        heap = self._heap
        pop = _heappop
        trace_fns = self._trace_fns  # list identity is stable
        fired = self._events_fired
        cancelled = self._events_cancelled
        timer = perf_counter
        try:
            while heap:
                entry = pop(heap)
                event = entry[2]
                if event._state is not _PENDING:
                    cancelled += 1
                    continue
                t = entry[0]
                if t > until:
                    _heappush(heap, entry)  # stays on the agenda
                    break
                self._now = t
                if trace_fns:
                    self._events_fired = fired
                    self._events_cancelled = cancelled
                    for fn in trace_fns:
                        fn(event)
                fired += 1
                event._state = _FIRED
                profiler = self.profiler
                if profiler is None:
                    event.callback()
                else:
                    t0 = timer()
                    event.callback()
                    profiler.record(event.kind, timer() - t0)
            self._now = float(until)
        finally:
            self._events_fired = fired
            self._events_cancelled = cancelled
            self._running = False

    def retire(self) -> None:
        """Drop the agenda and the trace subscribers; the clock and the
        counters stay readable.

        Pending events and subscribers are bound methods of the model's
        objects, which hold this engine: without this a finished run is
        one reference cycle, left to the cyclic collector.
        """
        self._heap.clear()
        self._trace_fns.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine now={self._now:.6g} pending={len(self._heap)} "
            f"fired={self._events_fired}>"
        )
