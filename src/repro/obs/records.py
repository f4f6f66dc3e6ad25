"""Typed trace records: the vocabulary of the structured trace.

Every record is a :class:`TraceRecord` — a simulation timestamp, a
:class:`TraceKind` tag and a flat field dict — so the whole trace
serialises to one JSON object per line.  The kinds mirror the three
subsystems the ISSUE of record calls out:

* request lifecycle: ``request.arrive`` → ``request.admit`` /
  ``request.reject`` (+ ``request.migrate`` hops) → ``request.finish``
  or ``request.drop``;
* server health: ``server.saturate`` / ``server.fail`` /
  ``server.recover``;
* scheduler activity: ``sched.realloc`` (one per EFTF reallocation),
  ``stream.buffer_full``, and the DRM search results ``drm.chain`` /
  ``drm.fail``.

The field schema per kind is documented in ``docs/OBSERVABILITY.md``;
:data:`KIND_FIELDS` is the machine-readable version used by tests.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, Mapping


class TraceKind(str, enum.Enum):
    """Tag of one trace record (string-valued, JSON-friendly)."""

    # -- run framing -------------------------------------------------
    RUN_META = "run.meta"

    # -- request lifecycle -------------------------------------------
    REQUEST_ARRIVE = "request.arrive"
    REQUEST_ADMIT = "request.admit"
    REQUEST_REJECT = "request.reject"
    REQUEST_MIGRATE = "request.migrate"
    REQUEST_FINISH = "request.finish"
    REQUEST_DROP = "request.drop"

    # -- graceful degradation (bounded retry queue) ------------------
    REQUEST_RETRY = "request.retry"
    REQUEST_RETRY_EXHAUST = "request.retry_exhaust"

    # -- server health -----------------------------------------------
    SERVER_SATURATE = "server.saturate"
    SERVER_FAIL = "server.fail"
    SERVER_RECOVER = "server.recover"
    SERVER_DEGRADE = "server.degrade"
    SERVER_LINK_RESTORE = "server.link_restore"
    SERVER_REPLICA_LOSS = "server.replica_loss"

    # -- elastic membership lifecycle (repro.core.elastic) -----------
    SERVER_JOIN = "server.join"
    SERVER_WARM = "server.warm"
    SERVER_ACTIVATE = "server.activate"
    SERVER_DRAIN = "server.drain"
    SERVER_DEPART = "server.depart"

    # -- online invariant checking -----------------------------------
    INVARIANT_VIOLATION = "invariant.violation"

    # -- live serving sessions (repro.serve) -------------------------
    SESSION_OPEN = "session.open"
    SESSION_CLOSE = "session.close"
    SESSION_SPAN = "session.span"

    # -- live telemetry plane (ops endpoint / flight recorder) -------
    SERVE_STATS = "serve.stats"
    POSTMORTEM_META = "postmortem.meta"

    # -- gateway task supervision (repro.serve.supervisor) -----------
    TASK_TRIP = "task.trip"
    TASK_RESTART = "task.restart"

    # -- prefix-cache / stream-sharing tier (repro.prefix) -----------
    CACHE_WARM = "cache.warm"
    CACHE_CHAIN = "cache.chain"
    CACHE_MERGE = "cache.merge"

    # -- scheduler / stream dynamics ---------------------------------
    SCHED_REALLOC = "sched.realloc"
    STREAM_BUFFER_FULL = "stream.buffer_full"
    DRM_CHAIN = "drm.chain"
    DRM_FAIL = "drm.fail"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Documented fields per kind (superset allowed; used by schema tests).
KIND_FIELDS: Dict[TraceKind, tuple] = {
    TraceKind.RUN_META: ("provenance",),
    TraceKind.REQUEST_ARRIVE: ("request", "video"),
    TraceKind.REQUEST_ADMIT: ("request", "video", "server", "migrated"),
    TraceKind.REQUEST_REJECT: ("request", "video", "reason"),
    TraceKind.REQUEST_MIGRATE: ("request", "source", "target", "cause"),
    TraceKind.REQUEST_FINISH: ("request", "server"),
    TraceKind.REQUEST_DROP: ("request", "server"),
    TraceKind.REQUEST_RETRY: ("request", "video", "attempt", "delay"),
    TraceKind.REQUEST_RETRY_EXHAUST: ("request", "video", "attempts",
                                      "reason"),
    TraceKind.SERVER_SATURATE: ("servers", "video"),
    TraceKind.SERVER_FAIL: ("server", "orphans"),
    TraceKind.SERVER_RECOVER: ("server",),
    TraceKind.SERVER_DEGRADE: ("server", "factor", "shed"),
    TraceKind.SERVER_LINK_RESTORE: ("server",),
    TraceKind.SERVER_REPLICA_LOSS: ("server", "video", "orphans"),
    TraceKind.SERVER_JOIN: ("server", "bandwidth", "disk", "epoch"),
    TraceKind.SERVER_WARM: ("server", "video", "seconds"),
    TraceKind.SERVER_ACTIVATE: ("server", "replicas", "epoch"),
    TraceKind.SERVER_DRAIN: ("server", "active", "epoch"),
    TraceKind.SERVER_DEPART: ("server", "moved", "epoch"),
    TraceKind.INVARIANT_VIOLATION: ("invariant", "subject", "detail"),
    TraceKind.SESSION_OPEN: ("request", "video", "server", "peer"),
    TraceKind.SESSION_CLOSE: ("request", "reason", "delivered_mb",
                              "chunks"),
    TraceKind.SESSION_SPAN: ("session", "phase", "wall"),
    TraceKind.SERVE_STATS: ("wall", "admits", "rejects", "sessions_active",
                            "chunks"),
    TraceKind.POSTMORTEM_META: ("reason", "provenance", "pid",
                                "dump_seq"),
    TraceKind.TASK_TRIP: ("task", "error", "detail", "restarting"),
    TraceKind.TASK_RESTART: ("task", "restarts"),
    TraceKind.CACHE_WARM: ("video", "prefix_mb", "seconds"),
    TraceKind.CACHE_CHAIN: ("request", "parent", "video", "gap",
                            "prefix_mb", "patch_mb"),
    TraceKind.CACHE_MERGE: ("request", "parent", "video"),
    TraceKind.SCHED_REALLOC: ("server", "allocator", "streams", "boosted"),
    TraceKind.STREAM_BUFFER_FULL: ("request", "server"),
    TraceKind.DRM_CHAIN: ("video", "length", "path"),
    TraceKind.DRM_FAIL: ("video",),
}


class TraceRecord:
    """One structured trace entry.

    Attributes:
        time: simulation clock at emission (seconds).
        kind: the :class:`TraceKind` tag.
        fields: flat, JSON-serialisable payload.
    """

    __slots__ = ("time", "kind", "fields")

    def __init__(
        self, time: float, kind: TraceKind, fields: Mapping[str, Any]
    ) -> None:
        self.time = time
        self.kind = kind
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to a single JSON-ready dict (``t`` and ``kind`` first)."""
        out: Dict[str, Any] = {"t": self.time, "kind": str(self.kind.value)}
        out.update(self.fields)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceRecord t={self.time:.6g} {self.kind.value} {self.fields}>"
