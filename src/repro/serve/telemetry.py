"""One telemetry snapshot: the gateway's only description of itself.

:func:`snapshot` is the single place the gateway's state is read out.
Every view renders from it:

* a ``serve.stats`` trace record **is** that dict (stamped ``t`` /
  ``kind`` by the tracer);
* the ``ops health`` reply **is** that dict; ``ops stats`` is it plus the
  metrics-registry snapshot;
* ``ClusterGateway.summary()["serve"]`` is it plus the two histograms;
* ``repro top`` renders it, whichever of the two it came from.

"Atomic" by construction: the gateway is single-threaded on the event
loop and nothing here awaits, so no session can open, close or migrate
between two fields of one snapshot.

This module reads a gateway; it never imports
:mod:`repro.serve.gateway` (docs/ARCHITECTURE.md, "The live gateway").
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.gateway import ClusterGateway

_PREFIX = "serve."

#: The load columns of one per-server row (also the
#: ``serve.server.{sid}.*`` gauge names).
SERVER_COLUMNS = ("sessions", "scheduled_mb_s", "bucket_mb")


def guard_occupancy(gateway: "ClusterGateway") -> float:
    """``vt_lag`` as a fraction of the guard window (~1.0 is nominal;
    > 1 means arrivals may be waiting on the policy loop)."""
    serve = gateway.serve
    return gateway.vt_lag() / (serve.guard * serve.compression)


def server_rows(gateway: "ClusterGateway") -> Dict[str, Dict[str, Any]]:
    """Live load of every server in one pass over the session table:
    session count, scheduled bandwidth (EFTF rate sum, Mb/s virtual),
    unframed pacing credit (Mb) and the membership lifecycle state."""
    controller = gateway.bridge.controller
    rows: Dict[str, Dict[str, Any]] = {
        str(sid): {"sessions": 0, "scheduled_mb_s": 0.0, "bucket_mb": 0.0}
        for sid in controller.servers
    }
    for session in gateway.sessions.values():
        row = rows.get(str(session.owner))
        if row is not None:
            row["sessions"] += 1
            row["scheduled_mb_s"] += max(0.0, session.request.rate)
            row["bucket_mb"] += session.tokens
    for sid, row in rows.items():
        row["scheduled_mb_s"] = round(row["scheduled_mb_s"], 6)
        row["bucket_mb"] = round(row["bucket_mb"], 6)
        row["state"] = controller.membership.state(int(sid)).value
    return rows


def instrument_server(gateway: "ClusterGateway", sid: int) -> None:
    """Register the ``serve.server.{sid}.*`` load gauges."""
    for column in SERVER_COLUMNS:
        gateway.registry.gauge(
            f"serve.server.{sid}.{column}",
            supplier=lambda c=column: server_rows(gateway)[str(sid)][c],
        )


def instrument(gateway: "ClusterGateway") -> None:
    """Register the gateway's gauges (its counters and histograms are
    created where they are incremented)."""
    reg = gateway.registry
    reg.gauge("serve.sessions.active", supplier=lambda: len(gateway.sessions))
    reg.gauge("serve.arrivals.pending", supplier=lambda: len(gateway.pending))
    reg.gauge("serve.vt_lag_s", supplier=gateway.vt_lag)
    reg.gauge(
        "serve.guard_occupancy", supplier=lambda: guard_occupancy(gateway)
    )
    reg.gauge("serve.task_trips", supplier=lambda: gateway.sup.trips)
    reg.gauge("serve.task_restarts", supplier=lambda: gateway.sup.restarts)


def snapshot(gateway: "ClusterGateway") -> Dict[str, Any]:
    """The gateway's state, JSON-ready.

    Keys: ``status`` (``serving`` / ``draining`` / ``idle``),
    ``anchored``, the clocks (``wall``, ``uptime_s``, ``virtual_now``),
    the lag (``vt_lag_s``, ``guard_occupancy``), ``sessions_active``,
    ``arrivals_pending``, ``decisions``, every ``serve.*`` counter under
    its registry name minus the prefix, ``latency_ms`` percentiles, the
    ``membership`` ledger, per-server ``servers`` rows, the prefix-tier
    ``cache`` stats (None when the tier is off) and the ``supervisor``
    report.
    """
    bridge, clock, registry = gateway.bridge, gateway.clock, gateway.registry
    if gateway.draining:
        status = "draining"
    else:
        status = "serving" if clock.anchored else "idle"
    latency = registry.histogram("serve.chunk_latency_ms")
    tier = getattr(bridge.sim, "prefix_tier", None)
    counters = {}
    for name, c in sorted(registry.counters().items()):
        if name.startswith(_PREFIX):
            value = c.snapshot()
            counters[name[len(_PREFIX):]] = (
                int(value) if value.is_integer() else round(value, 6)
            )
    return {
        "status": status,
        "anchored": clock.anchored,
        "wall": round(clock.wall(), 3),
        "uptime_s": round(gateway.uptime(), 3),
        "virtual_now": round(bridge.now, 9),
        "vt_lag_s": round(gateway.vt_lag(), 6),
        "guard_occupancy": round(guard_occupancy(gateway), 4),
        "sessions_active": len(gateway.sessions),
        "arrivals_pending": len(gateway.pending),
        "decisions": len(bridge.decisions),
        **counters,
        "latency_ms": {
            f"p{q:g}": v
            for q, v in latency.percentiles((50.0, 95.0, 99.0)).items()
        },
        "membership": bridge.controller.membership.to_dict(),
        "servers": server_rows(gateway),
        "cache": tier.stats() if tier is not None else None,
        "supervisor": gateway.sup.report(),
    }


def session_table(
    gateway: "ClusterGateway", recent: int = 20
) -> Dict[str, Any]:
    """``ops sessions``: live per-session rows + recent spans."""
    active = []
    for key, session in sorted(gateway.sessions.items()):
        span = gateway.spans.get(key)
        active.append({
            "key": key,
            "request": session.decision.request,
            "video": session.decision.video,
            "server": session.server_id,
            "phase": span.phase.value if span and span.phase else None,
            "delivered_mb": round(session.delivered_mb, 6),
            "scheduled_mb": round(session.scheduled_mb, 6),
            "bucket_mb": round(session.tokens, 6),
            "chunks": session.chunks,
            "migrations": session.migrations,
        })
    return {
        "active": active,
        "recent": [s.to_dict() for s in gateway.spans.recent(recent)],
        "spans_recorded": gateway.spans.recorded,
    }
