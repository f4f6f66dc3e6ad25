"""Event handles for the simulation engine.

An :class:`Event` is a single scheduled callback.  Events are ordered by
``(time, seq)`` where ``seq`` is a monotonically increasing sequence
number assigned at scheduling time, giving deterministic FIFO ordering
for events scheduled at the same timestamp — essential for reproducible
simulations.

Cancellation is *lazy*: cancelling marks the handle and the engine skips
it when popped, so cancel is O(1) and the heap never needs re-sifting.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventState(enum.Enum):
    """Lifecycle of an event handle."""

    PENDING = "pending"      #: scheduled, not yet fired
    FIRED = "fired"          #: callback has run
    CANCELLED = "cancelled"  #: cancelled before firing


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Engine.schedule`;
    user code normally only keeps them around to call :meth:`cancel`.

    Attributes:
        time: absolute simulation time at which the event fires.
        seq: engine-assigned tie-break sequence number.
        callback: zero-argument callable invoked at ``time`` (payload is
            bound by the caller via ``functools.partial`` or a closure).
        payload: optional opaque annotation, useful for tracing.
        kind: optional string tag for tracing/statistics.
    """

    __slots__ = ("time", "seq", "callback", "payload", "kind", "_state")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        payload: Any = None,
        kind: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.kind = kind
        self._state = EventState.PENDING

    @property
    def state(self) -> EventState:
        return self._state

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired/cancelled."""
        return self._state is EventState.PENDING

    def cancel(self) -> bool:
        """Cancel the event if still pending.

        Returns:
            True if the event was pending and is now cancelled, False if
            it had already fired or been cancelled (idempotent).
        """
        if self._state is EventState.PENDING:
            self._state = EventState.CANCELLED
            return True
        return False

    def _fire(self) -> None:
        """Engine-internal: run the callback exactly once."""
        self._state = EventState.FIRED
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" kind={self.kind!r}" if self.kind else ""
        return f"<Event t={self.time:.6g} seq={self.seq} {self._state.value}{tag}>"
