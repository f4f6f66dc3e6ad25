"""The data servers: paced transmission of admitted sessions.

The paper's architecture is a distribution controller that admits and N
data servers that transmit.  :mod:`repro.serve.gateway` is the former;
this module is the latter, and it never imports the gateway:

* :class:`VirtualClock` — the affine map between the event loop's clock
  and virtual time (the gateway anchors one on the first arrival, the
  load generator dispatches on another);
* :class:`Session` — one admitted stream: its request, its transport and
  the pacing credit the EFTF schedule has granted but not yet framed;
* :class:`Pacer` — the session table (the gateway enters admitted
  streams) and one :meth:`Pacer.server_loop` per cluster server.  Every
  :attr:`ServeConfig.tick` a loop integrates the EFTF workahead schedule
  of the sessions it hosts and drains the delta as ``chunk`` frames
  carrying ``bytes_per_megabit`` real bytes per scheduled megabit.  The
  schedule — not the network — is the shaper, so client staging buffers
  behave exactly as in the simulator.

Unlike a rate limiter's bucket, pacing credit never drops on overflow:
it *is* video data the schedule has committed to, so the bound lives
upstream (the scheduler never works ahead past the client's staging
headroom); :attr:`Pacer.burst_mb` only caps a single frame.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro import obs
from repro.cluster.membership import ServerLifecycle
from repro.cluster.request import Request, RequestState
from repro.obs.spans import SpanPhase
from repro.serve.bridge import Decision, PolicyBridge
from repro.serve.config import ServeConfig
from repro.serve.protocol import MAX_PAYLOAD_BYTES, drain, encode_frame
from repro.serve.supervisor import TaskSupervisor

#: Below this many megabits a chunk is float noise, not data.
_EPS_MB = 1e-9

#: Every chunk payload is a slice of this one block (a view: no
#: per-chunk allocation; only the pages actually sliced are touched).
_ZEROS = memoryview(bytes(MAX_PAYLOAD_BYTES))


class VirtualClock:
    """Affine map between the event loop's clock and virtual time.

    Unanchored until the first arrival: live runs have no natural t=0
    before traffic exists, and anchoring on the first frame keeps the
    startup slack independent of how long the process sat idle.
    """

    __slots__ = ("compression", "wall", "_t0")

    def __init__(self, compression: float) -> None:
        self.compression = compression
        #: The event loop's clock (``loop.time`` once the owner runs on
        #: a loop; 0.0 before, so an unstarted gateway can be described).
        self.wall = lambda: 0.0
        self._t0: Optional[float] = None

    @property
    def anchored(self) -> bool:
        return self._t0 is not None

    def anchor(self, virtual: float, wall: float, slack: float = 0.0) -> None:
        """Pin the map so ``wall_for(virtual) == wall + slack``."""
        if self._t0 is None:
            self._t0 = wall + slack - virtual / self.compression

    def virtual(self, wall: float) -> float:
        """Virtual time at event-loop time *wall* (>= 0)."""
        if self._t0 is None:
            return 0.0
        return max(0.0, (wall - self._t0) * self.compression)

    def wall_for(self, virtual: float) -> float:
        """Event-loop time at which virtual time *virtual* occurs."""
        assert self._t0 is not None, "clock not anchored"
        return self._t0 + virtual / self.compression


class Session:
    """Data-server-side state of one admitted stream."""

    __slots__ = (
        "key", "decision", "request", "writer", "tokens", "scheduled_mb",
        "delivered_mb", "chunks", "server_id", "migrations", "closed",
        "last_stamp",
    )

    def __init__(
        self,
        key: int,
        decision: Decision,
        request: Request,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.key = key
        self.decision = decision
        self.request = request
        self.writer = writer
        self.tokens = 0.0         # pacing credit: scheduled, not yet framed
        self.scheduled_mb = 0.0   # schedule integral mirrored so far
        self.delivered_mb = 0.0   # megabits actually framed to the client
        self.chunks = 0
        self.server_id = request.server_id
        self.migrations = 0
        self.closed = False
        self.last_stamp = decision.time  # virtual t of the last chunk

    @property
    def owner(self) -> Optional[int]:
        """The server whose loop paces this session right now."""
        current = self.request.server_id
        return current if current is not None else self.server_id


class Pacer:
    """The session table and the per-server loops that drain it.

    Args:
        serve: wall-clock knobs; its constants fix the tick, the send
            bounds and the payload scaling.
        bridge: the policy core; read for the virtual clock, request
            state and membership, never advanced from here.
        clock: the gateway's virtual clock.
        spans: lifecycle span log (``handoff`` / ``pacing`` / ``drain``
            / ``close`` are recorded here).
        sup: the supervisor the loops heartbeat to, and whose
            ``should_stop`` ends them.
        tracer: optional tracer for ``session.close`` records.
    """

    def __init__(
        self,
        serve: ServeConfig,
        bridge: PolicyBridge,
        clock: VirtualClock,
        spans: obs.SpanLog,
        sup: TaskSupervisor,
        tracer: Optional[obs.Tracer],
    ) -> None:
        self.serve = serve
        self.bridge = bridge
        self.clock = clock
        self.spans = spans
        self.sup = sup
        self.tracer = tracer
        self.sessions: Dict[int, Session] = {}
        # One chunk per tick per session keeps frames bounded; the cap
        # only binds after a stall (sends catch up over several ticks).
        view_mb = bridge.config.system.view_bandwidth
        self.burst_mb = min(
            max(4.0 * serve.to_virtual(serve.tick) * view_mb, 1.0),
            MAX_PAYLOAD_BYTES / serve.bytes_per_megabit,
        )
        reg = bridge.registry
        self._c_chunks = reg.counter("serve.chunks")
        self._c_chunk_mb = reg.counter("serve.chunk_megabits")
        self._c_retries = reg.counter("serve.send_retries")
        self._h_buffer = reg.histogram("serve.client_buffer_mb")
        self._h_latency = reg.histogram("serve.chunk_latency_ms")

    async def try_send(
        self, writer: asyncio.StreamWriter, data: bytes
    ) -> bool:
        """Write *data* (whole frames) once, then drain within the
        bounded retry budget; True when the transport drained."""
        try:
            writer.write(data)
        except (ConnectionError, OSError):
            return False
        for attempt in range(self.serve.send_retries + 1):
            try:
                await drain(writer, self.serve.send_timeout)
                return True
            except asyncio.TimeoutError:
                # Transient backpressure: only the drain is retried —
                # the bytes are already buffered, writing them again
                # would deliver the frame twice.
                if attempt < self.serve.send_retries:
                    self._c_retries.inc()
            except (ConnectionError, OSError):
                return False
        return False

    async def server_loop(self, server_id: int) -> None:
        """Pace every session currently hosted by *server_id*.

        Sessions follow their request's ``server_id``, so a DRM
        migration hands the stream to the target server's loop at the
        next tick.  When elastic
        scale-in departs the server, the loop returns cleanly once its
        last session has been handed off (a clean factory return ends
        supervision without a restart).
        """
        name = f"serve.server.{server_id}"
        membership = self.bridge.controller.membership
        while not self.sup.should_stop():
            await asyncio.sleep(self.serve.tick)
            self.sup.beat(name)
            if not self.clock.anchored:
                continue
            mine = [s for s in self.sessions.values() if s.owner == server_id]
            if not mine and (
                membership.state(server_id) is ServerLifecycle.DEPARTED
            ):
                return
            now_vt = self.bridge.now
            for session in mine:
                # Re-checked: an earlier pump may have waited on a slow
                # peer while this one was closed or migrated away.
                if session.closed or session.owner != server_id:
                    continue
                target = session.request.server_id
                if target is not None and target != session.server_id:
                    session.migrations += 1
                    self.spans.record(
                        session.key, SpanPhase.HANDOFF, self.clock.wall(),
                        now_vt, source=session.server_id, target=target,
                    )
                    session.server_id = target
                await self._pump_session(session, now_vt)

    async def _pump_session(self, session: Session, now_vt: float) -> None:
        request = session.request
        # The EFTF schedule integral at now_vt: between boundary events
        # the rate is constant, so this equals what Request.sync() will
        # record when the engine reaches now_vt.
        scheduled = min(
            request.video.size,
            request.sent_at(max(now_vt, request.last_sync)),
        )
        if scheduled > session.scheduled_mb:
            session.tokens += scheduled - session.scheduled_mb
            session.scheduled_mb = scheduled

        # Drain the whole credit this tick (several burst-capped frames
        # after a wall-clock stall, one in steady state).  Stamping: the
        # frame that empties the credit carries ``now_vt`` — at that
        # point cumulative delivery equals the schedule integral, which
        # EFTF keeps ahead of playback; earlier catch-up frames reuse
        # the previous stamp, where the same invariant already held with
        # *less* data delivered.  Client-side underrun accounting thus
        # cannot trip on event-loop jitter, only on a gateway that
        # genuinely under-scheduled.
        done = (
            request.state is RequestState.FINISHED
            and session.scheduled_mb >= request.video.size - _EPS_MB
        )
        ended = False  # the ``end`` frame left with the last chunk
        while True:
            mb = min(session.tokens, self.burst_mb)
            session.tokens -= mb
            if mb <= _EPS_MB:
                break
            if session.tokens <= _EPS_MB:
                # Clamp to the request's (deterministic) end: the pump
                # can run past finish/drop on the wall-lagged policy
                # clock, and a stamp overshooting it would leak wall
                # jitter into the client's virtual-time chaos decisions.
                finish = request.finish_time
                session.last_stamp = (
                    min(now_vt, finish) if finish is not None else now_vt
                )
                ended = done
            first_chunk = session.chunks == 0
            delivered_mb = session.delivered_mb + mb
            data = encode_frame(
                {
                    "type": "chunk",
                    "t": round(session.last_stamp, 9),
                    "server": session.server_id,
                    "mb": round(mb, 9),
                    "seq": session.chunks,
                },
                _ZEROS[: max(1, int(mb * self.serve.bytes_per_megabit))],
            )
            if ended:
                # The stream's last chunk: its ``end`` shares the write
                # (one syscall, and the client sees both or neither).
                data += self._end_frame(
                    session, "finished", session.chunks + 1, delivered_mb
                )
            if not await self.try_send(session.writer, data):
                await self.close_session(session, "send_failed", notify=False)
                return
            session.chunks += 1
            session.delivered_mb = delivered_mb
            self._c_chunks.inc()
            self._c_chunk_mb.inc(mb)
            # Delivery lag behind the schedule: wall now minus the wall
            # time the chunk's virtual stamp maps to.  The pacer trails
            # the wall clock by `guard` on purpose, so steady state
            # reads ~guard*1000 ms; growth beyond that is real lag.
            wall = self.clock.wall()
            lag_ms = (wall - self.clock.wall_for(session.last_stamp)) * 1000.0
            self._h_latency.observe(max(0.0, lag_ms))
            if first_chunk:
                self.spans.record(
                    session.key, SpanPhase.PACING, wall, now_vt,
                    server=session.server_id,
                )

        if request.state is RequestState.DROPPED:
            await self.close_session(session, "dropped", notify=True)
        elif done and session.tokens <= _EPS_MB:
            self._h_buffer.observe(request.buffer_occupancy(now_vt))
            await self.close_session(session, "finished", notify=not ended)

    def _end_frame(
        self, session: Session, reason: str, chunks: int, delivered_mb: float
    ) -> bytes:
        header = {
            "type": "end",
            "reason": reason,
            "request": session.decision.request,
            "delivered_mb": round(delivered_mb, 9),
            "chunks": chunks,
        }
        if (
            reason in ("dropped", "finished")
            and session.request.finish_time is not None
        ):
            # The exact virtual end time (Request.mark_dropped /
            # mark_finished).  A resilient client re-requests
            # relative to the drop stamp, and resolves a pending
            # chaos cut against the finish stamp — both purely in
            # virtual time, keeping retry timelines byte-identical
            # across same-seed runs.
            header["t"] = round(session.request.finish_time, 9)
        return encode_frame(header)

    async def close_session(
        self, session: Session, reason: str, notify: bool
    ) -> None:
        """Retire *session* (idempotent): spans, the ``end`` frame when
        *notify*, the transport, the ``session.close`` record."""
        if session.closed:
            return
        session.closed = True
        self.sessions.pop(session.key, None)
        wall, now_vt = self.clock.wall(), self.bridge.now
        totals = {
            "delivered_mb": round(session.delivered_mb, 9),
            "chunks": session.chunks,
        }
        if reason == "drained":
            self.spans.record(session.key, SpanPhase.DRAIN, wall, now_vt)
        self.spans.record(
            session.key, SpanPhase.CLOSE, wall, now_vt, reason=reason,
            **totals,
        )
        if notify:
            await self.try_send(
                session.writer,
                self._end_frame(
                    session, reason, session.chunks, session.delivered_mb
                ),
            )
        session.writer.close()
        if self.tracer is not None:
            self.tracer.emit(
                obs.TraceKind.SESSION_CLOSE,
                self.bridge.now,
                request=session.decision.request,
                reason=reason,
                **totals,
            )
