"""Session spans: the typed lifecycle of one live stream, twice-clocked.

A live session crosses two clocks — the gateway's wall clock and the
policy core's virtual clock — and the interesting bugs live in the gap
between them.  A :class:`SessionSpan` therefore records every phase
transition with *both* timestamps:

    accept  ->  admit | reject  ->  pacing  ->  handoff*  ->  drain? -> close

``accept`` is the arrival frame hitting the gateway; ``admit`` /
``reject`` the policy decision; ``pacing`` the first paced chunk;
``handoff`` one DRM migration picked up by the new server's task (zero
or more per span); ``drain`` a force-close during gateway drain; and
``close`` the terminal transition carrying the end reason.

Spans live in a :class:`SpanLog` — active spans in a dict, the last
:data:`DEFAULT_SPAN_CAPACITY` completed ones in a ring — and every
transition is *also* emitted through the attached
:class:`~repro.obs.tracer.Tracer` as a ``session.span`` record (virtual
timestamp as the record time, wall timestamp as a field), so a JSONL
trace replays the full story and the flight recorder's postmortem
window contains the most recent transitions.  The gateway's ops
endpoint serves the live view (``ops sessions``: the live session rows
and :meth:`SpanLog.recent`).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer

#: Completed spans retained (the live-query window).
DEFAULT_SPAN_CAPACITY = 1_000


class SpanPhase(str, enum.Enum):
    """One lifecycle transition of a live session."""

    ACCEPT = "accept"     #: request frame parsed, arrival enqueued
    ADMIT = "admit"       #: policy said yes
    REJECT = "reject"     #: policy (or drain) said no — terminal
    PACING = "pacing"     #: first chunk left the gateway
    HANDOFF = "handoff"   #: DRM migration picked up by the new server
    DRAIN = "drain"       #: force-closed while the gateway drains
    CLOSE = "close"       #: session over — terminal

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Phases after which a span is complete.
TERMINAL_PHASES = frozenset((SpanPhase.REJECT, SpanPhase.CLOSE))


class SpanEvent:
    """One phase transition: wall + virtual timestamps and details."""

    __slots__ = ("phase", "wall", "virtual", "fields")

    def __init__(
        self,
        phase: SpanPhase,
        wall: float,
        virtual: float,
        fields: Dict[str, Any],
    ) -> None:
        self.phase = phase
        self.wall = wall
        self.virtual = virtual
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "phase": self.phase.value,
            "wall": round(self.wall, 6),
            "vt": round(self.virtual, 9),
        }
        out.update(self.fields)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpanEvent {self.phase.value} wall={self.wall:.3f} "
            f"vt={self.virtual:.6g}>"
        )


class SessionSpan:
    """The recorded lifecycle of one session, keyed by arrival seq."""

    __slots__ = ("key", "video", "request", "server", "retries", "events")

    def __init__(self, key: int, video: Optional[int] = None) -> None:
        self.key = key
        self.video = video
        self.request: Optional[int] = None
        self.server: Optional[int] = None
        #: Client-announced reconnect attempt (``retry`` field of the
        #: request frame): 0 for a first try, k for the k-th re-request
        #: after a disconnect or drop (docs/ROBUSTNESS.md, live chaos).
        self.retries: int = 0
        self.events: List[SpanEvent] = []

    @property
    def phase(self) -> Optional[SpanPhase]:
        """The most recent phase, or None before any transition."""
        return self.events[-1].phase if self.events else None

    @property
    def handoffs(self) -> int:
        return sum(
            1 for e in self.events if e.phase is SpanPhase.HANDOFF
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view (what ``ops sessions`` returns per span)."""
        return {
            "key": self.key,
            "video": self.video,
            "request": self.request,
            "server": self.server,
            "phase": self.phase.value if self.phase else None,
            "handoffs": self.handoffs,
            "retries": self.retries,
            "events": [e.to_dict() for e in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SessionSpan key={self.key} phase="
            f"{self.phase.value if self.phase else None} "
            f"events={len(self.events)}>"
        )


class SpanLog:
    """Bounded, queryable home of session spans.

    Args:
        tracer: optional tracer mirroring every transition as a
            ``session.span`` record (the replay/postmortem path).

    The last :data:`DEFAULT_SPAN_CAPACITY` completed spans are retained
    (oldest evicted first); active spans are never evicted — they are
    bounded by the gateway's live session count.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self._active: Dict[int, SessionSpan] = {}
        self._closed: Deque[SessionSpan] = deque(maxlen=DEFAULT_SPAN_CAPACITY)
        self._recorded = 0

    def record(
        self,
        key: int,
        phase: SpanPhase,
        wall: float,
        virtual: float,
        **fields: Any,
    ) -> SessionSpan:
        """Append one transition to *key*'s span (created on first use).

        Well-known fields (``video``, ``request``, ``server``,
        ``retry``) are also promoted onto the span itself so the live
        view needs no event scan.  Returns the span.
        """
        span = self._active.get(key)
        if span is None:
            span = self._active[key] = SessionSpan(key)
        if "video" in fields:
            span.video = fields["video"]
        if "request" in fields:
            span.request = fields["request"]
        if "server" in fields and fields["server"] is not None:
            span.server = fields["server"]
        if "retry" in fields and fields["retry"]:
            span.retries = max(span.retries, int(fields["retry"]))
        span.events.append(SpanEvent(phase, wall, virtual, fields))
        self._recorded += 1
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SESSION_SPAN,
                virtual,
                session=key,
                phase=phase.value,
                wall=round(wall, 6),
                **fields,
            )
        if phase in TERMINAL_PHASES:
            self._active.pop(key, None)
            self._closed.append(span)
        return span

    # ------------------------------------------------------------------
    # Queries (the ops endpoint's live view)
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[SessionSpan]:
        """The span for *key*: active first, then the retained ring."""
        span = self._active.get(key)
        if span is not None:
            return span
        for span in self._closed:
            if span.key == key:
                return span
        return None

    def recent(self, limit: Optional[int] = None) -> List[SessionSpan]:
        """Completed spans, newest first (up to *limit*)."""
        spans = list(self._closed)
        spans.reverse()
        return spans if limit is None else spans[:limit]

    @property
    def recorded(self) -> int:
        """Total transitions recorded over the log's lifetime."""
        return self._recorded

    def __len__(self) -> int:
        return len(self._active) + len(self._closed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpanLog active={len(self._active)} "
            f"closed={len(self._closed)}>"
        )
