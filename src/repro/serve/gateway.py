"""The cluster gateway: live admission + paced streaming over TCP.

The gateway is the wall-clock incarnation of the paper's *distribution
controller*.  One asyncio process runs:

* an **acceptor** — a TCP listener whose per-connection handler reads
  the client's ``request`` frame (bounded by
  :attr:`ServeConfig.handshake_timeout`) and enqueues the arrival;
* a **policy loop** — pops arrivals from a virtual-time-ordered heap
  once their reorder window has elapsed and runs each through the
  shared :class:`~repro.serve.bridge.PolicyBridge`, answering with an
  ``admit`` or ``reject`` frame.  Between arrivals it advances the
  policy engine to *guard* wall-seconds behind the wall clock (never
  past a buffered arrival), firing the same EFTF boundary events a
  virtual-time run would fire;
* N **server tasks** (one per cluster server) — every
  :attr:`ServeConfig.tick` each task integrates the EFTF workahead
  schedule of its active sessions and feeds the delta into a per-session
  token bucket, then drains the bucket as ``chunk`` frames whose payload
  carries ``bytes_per_megabit`` real bytes per scheduled megabit.  The
  schedule — not the network — is the shaper, so client staging buffers
  behave exactly as in the simulator.  Under elastic membership
  (:mod:`repro.core.elastic`) the task set follows the policy core's
  :class:`~repro.cluster.membership.ClusterMembership`: each epoch bump
  spawns tasks for joiners and departed servers' tasks retire once
  their last session has been handed off;
* a **drain** path — on SIGTERM (wired by ``repro serve``) or
  :meth:`ClusterGateway.stop`, new arrivals are rejected with reason
  ``"draining"``, in-flight sessions run to completion (bounded by
  :attr:`ServeConfig.drain_timeout`), and a provenance-stamped summary
  is returned with every asyncio task joined.

Virtual and wall clocks are affinely related: the clock anchors when
the first arrival's frame is read, placing that arrival
``startup_slack`` wall seconds in the future so its reorder window can
close before its due time.  All parity-relevant reasoning lives in
docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
from datetime import datetime, timezone
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.cluster.membership import ServerLifecycle
from repro.cluster.request import Request, RequestState
from repro.obs.spans import SpanPhase
from repro.serve.bridge import Decision, ParityError, PolicyBridge
from repro.serve.config import ServeConfig
from repro.serve.ops import OpsEndpoint
from repro.serve.supervisor import TaskSupervisor
from repro.serve.protocol import (
    FrameError,
    MAX_PAYLOAD_BYTES,
    drain,
    drained,
    encode_frame,
    read_frame,
)
from repro.simulation import SimulationConfig

#: Below this many megabits a chunk is float noise, not data.
_EPS_MB = 1e-9

#: Every chunk payload is a slice of this one block (a view: no
#: per-chunk allocation; only the pages actually sliced are touched).
_ZEROS = memoryview(bytes(MAX_PAYLOAD_BYTES))


def serve_refusal(config: SimulationConfig) -> Optional[str]:
    """Why the live gateway cannot serve *config*, or None when it can.

    The gateway's row of the compatibility matrix as a function, so a
    caller choosing between a live and a virtual-only run (``repro
    verify``) can ask without constructing a gateway.
    """
    if config.prefix is not None and config.prefix.batching != "none":
        return (
            "the live gateway cannot serve chained sessions (a "
            "chained admission has no server stream for the pacing "
            "loop to drain); use prefix batching='none' for "
            "cache-only operation, or run the scenario virtually"
        )
    return None


class _VirtualClock:
    """Affine map between the event loop's clock and virtual time.

    Unanchored until the first arrival: live runs have no natural t=0
    before traffic exists, and anchoring on the first frame keeps the
    startup slack independent of how long the process sat idle.
    """

    __slots__ = ("compression", "_t0")

    def __init__(self, compression: float) -> None:
        self.compression = compression
        self._t0: Optional[float] = None

    @property
    def anchored(self) -> bool:
        return self._t0 is not None

    def anchor(self, virtual: float, wall: float, slack: float) -> None:
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


class _TokenBucket:
    """Pacing credit for one session, refilled by the EFTF schedule.

    Unlike a classic rate-limiter bucket there is no drop-on-overflow:
    the credits *are* video data the schedule has already committed to,
    so the capacity bound lives upstream (the scheduler never works
    ahead past the client's staging headroom).  ``burst_mb`` only caps
    how much leaves in a single frame.
    """

    __slots__ = ("tokens", "burst_mb")

    def __init__(self, burst_mb: float) -> None:
        self.tokens = 0.0
        self.burst_mb = burst_mb

    def credit(self, mb: float) -> None:
        if mb > 0.0:
            self.tokens += mb

    def take(self) -> float:
        """Withdraw up to one frame's worth of credit."""
        mb = min(self.tokens, self.burst_mb)
        self.tokens -= mb
        return mb


class _Arrival:
    """One admission request parked in the reorder heap."""

    __slots__ = ("time", "seq", "video", "writer", "opened")

    def __init__(
        self,
        time: float,
        seq: int,
        video: int,
        writer: asyncio.StreamWriter,
        opened: float,
    ) -> None:
        self.time = time
        self.seq = seq
        self.video = video
        self.writer = writer
        self.opened = opened

    def order(self) -> Tuple[float, int]:
        return (self.time, self.seq)


class _Session:
    """Gateway-side state of one admitted stream."""

    __slots__ = (
        "key", "decision", "request", "writer", "bucket", "scheduled_mb",
        "delivered_mb", "chunks", "send_failures", "server_id",
        "migrations", "end_reason", "closed", "last_stamp",
    )

    def __init__(
        self,
        key: int,
        decision: Decision,
        request: Request,
        writer: asyncio.StreamWriter,
        burst_mb: float,
    ) -> None:
        self.key = key
        self.decision = decision
        self.request = request
        self.writer = writer
        self.bucket = _TokenBucket(burst_mb)
        self.scheduled_mb = 0.0   # schedule integral mirrored so far
        self.delivered_mb = 0.0   # megabits actually framed to the client
        self.chunks = 0
        self.send_failures = 0
        self.server_id = request.server_id
        self.migrations = 0
        self.end_reason: Optional[str] = None
        self.closed = False
        self.last_stamp = decision.time  # virtual t of the last chunk

    @property
    def owner(self) -> Optional[int]:
        """The server whose task paces this session right now."""
        current = self.request.server_id
        return current if current is not None else self.server_id


class ClusterGateway:
    """Serve a committed scenario's policy core on a TCP port.

    Args:
        config: the scenario (policy) configuration; decisions come from
            the same :class:`~repro.simulation.Simulation` build a
            virtual-time run would use.
        serve: wall-clock runtime knobs; defaults are tuned for
            loopback tests.
        tracer: optional tracer; receives the policy core's records
            plus ``session.open`` / ``session.close``.

    Usage::

        gateway = ClusterGateway(config, ServeConfig(port=0))
        await gateway.start()
        ...                       # clients connect to gateway.port
        summary = await gateway.stop()
    """

    def __init__(
        self,
        config: SimulationConfig,
        serve: Optional[ServeConfig] = None,
        tracer: Optional[obs.Tracer] = None,
        recorder: Optional[obs.FlightRecorder] = None,
        wrap_writer: Optional[
            Callable[[asyncio.StreamWriter], asyncio.StreamWriter]
        ] = None,
    ) -> None:
        refusal = serve_refusal(config)
        if refusal is not None:
            raise ValueError(refusal)
        self.config = config
        self.serve = serve if serve is not None else ServeConfig()
        self.tracer = tracer
        self.recorder = recorder
        #: Optional per-connection transport wrapper — the chaos plane
        #: installs a fault-injecting (toxic) writer here so latency,
        #: stalls and mid-frame cuts hit the real send path.
        self.wrap_writer = wrap_writer
        #: The live chaos plane, when one is armed (repro.serve.chaos);
        #: the ops endpoint's ``chaos`` verb answers from it.
        self.chaos: Optional[Any] = None
        self.bridge = PolicyBridge(config, tracer=tracer)
        self.clock = _VirtualClock(self.serve.compression)
        self.registry = self.bridge.sim.registry
        self.sessions: Dict[int, _Session] = {}
        #: Twice-clocked lifecycle spans, live-queryable via the ops
        #: endpoint and mirrored into the trace (docs/OBSERVABILITY.md).
        self.spans = obs.SpanLog(tracer=tracer)
        self.ops: Optional[OpsEndpoint] = (
            OpsEndpoint(self) if self.serve.ops_port is not None else None
        )
        #: Heartbeat + restart supervision of every gateway loop
        #: (docs/ROBUSTNESS.md, "live chaos").  The recorder is read
        #: lazily — callers may attach it after construction.
        self.sup = TaskSupervisor(
            should_stop=self._should_stop,
            recorder=lambda: self.recorder,
            tracer=tracer,
            now_virtual=lambda: self.bridge.now,
            heartbeat_timeout=self.serve.heartbeat_timeout,
            restart_limit=self.serve.task_restart_limit,
            restart_delay=self.serve.task_restart_delay,
        )

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started_wall: Optional[float] = None
        self._tasks: List[asyncio.Task] = []
        self._side_tasks: Set[asyncio.Task] = set()
        self._pending: List[Tuple[Tuple[float, int], _Arrival]] = []
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        self._draining = False
        self._seq = 0
        self._drain_rejects = 0
        self._parity_clamps = 0
        self._handshake_errors = 0

        # One chunk per tick per session keeps frames bounded; the cap
        # only binds after a stall (sends catch up over several ticks).
        view_mb = config.system.view_bandwidth
        self._burst_mb = min(
            max(4.0 * self.serve.to_virtual(self.serve.tick) * view_mb, 1.0),
            MAX_PAYLOAD_BYTES / self.serve.bytes_per_megabit,
        )

        reg = self.registry
        reg.gauge("serve.sessions.active", supplier=lambda: len(self.sessions))
        reg.gauge(
            "serve.arrivals.pending", supplier=lambda: len(self._pending)
        )
        reg.gauge("serve.vt_lag_s", supplier=self.vt_lag)
        reg.gauge("serve.guard_occupancy", supplier=self.guard_occupancy)
        #: Server ids whose ``serve.server.{sid}`` task + gauges exist.
        #: Seed members are instrumented here; elastic joiners are added
        #: by :meth:`_reconcile_membership` at their membership epoch.
        self._instrumented_servers: Set[int] = set()
        self._membership_epoch = 0
        for sid in self.bridge.controller.servers:
            self._register_server_gauges(sid)
        self._c_admits = reg.counter("serve.admits")
        self._c_rejects = reg.counter("serve.rejects")
        self._c_chunks = reg.counter("serve.chunks")
        self._c_chunk_mb = reg.counter("serve.chunk_megabits")
        self._c_retries = reg.counter("serve.send_retries")
        self._c_client_retries = reg.counter("serve.client_retries")
        self._h_buffer = reg.histogram("serve.client_buffer_mb")
        self._h_latency = reg.histogram("serve.chunk_latency_ms")
        reg.gauge("serve.task_trips", supplier=lambda: self.sup.trips)
        reg.gauge("serve.task_restarts", supplier=lambda: self.sup.restarts)

    def _should_stop(self) -> bool:
        """Supervisor predicate (``_stopping`` is bound after ``sup``)."""
        return self._stopping.is_set()

    def _register_server_gauges(self, sid: int) -> None:
        """Register the per-server load gauges for *sid* (idempotent
        via :attr:`_instrumented_servers`)."""
        if sid in self._instrumented_servers:
            return
        self._instrumented_servers.add(sid)
        reg = self.registry
        reg.gauge(
            f"serve.server.{sid}.sessions",
            supplier=lambda s=sid: self._server_row(s)["sessions"],
        )
        reg.gauge(
            f"serve.server.{sid}.scheduled_mb_s",
            supplier=lambda s=sid: self._server_row(s)["scheduled_mb_s"],
        )
        reg.gauge(
            f"serve.server.{sid}.bucket_mb",
            supplier=lambda s=sid: self._server_row(s)["bucket_mb"],
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listeners and start the policy and server loops."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.serve.host, port=self.serve.port
        )
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._started_wall = loop.time()
        if self.ops is not None:
            await self.ops.start()
        self._tasks.append(
            self.sup.spawn(
                "serve.policy", self._policy_loop, where="policy_loop"
            )
        )
        for sid in self.bridge.controller.servers:
            self._spawn_server_task(sid)
        self._membership_epoch = self.bridge.controller.membership.epoch
        if self.tracer is not None:
            self._tasks.append(
                self.sup.spawn(
                    "serve.stats", self._stats_loop, where="stats_loop"
                )
            )

    def kill_server_task(self, server_id: int, reason: str = "chaos") -> bool:
        """Crash one server task as a live fault (the chaos kill switch).

        The supervisor cancels the loop's child mid-tick — exactly as an
        abrupt process death would look from the event loop — dumps a
        postmortem, and restarts the loop within its budget.  Sessions
        owned by the dead "server" keep their engine-side requests; the
        policy core's failover decides (deterministically) which ones
        migrate and which drop.  Returns False when the task was not
        running (already tripped, or the id is unknown).
        """
        return self.sup.inject_crash(f"serve.server.{server_id}", reason)

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``ServeConfig(port=0)``)."""
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def ops_port(self) -> int:
        """The ops endpoint's bound TCP port."""
        assert self.ops is not None, "ops endpoint disabled (ops_port=None)"
        return self.ops.port

    def begin_drain(self) -> None:
        """Stop admitting; keep pacing.  Idempotent, sync (signal-safe)."""
        self._draining = True
        self._wake.set()

    async def drain(self) -> None:
        """Wait for in-flight sessions to finish (bounded), then force-
        close the stragglers with an ``end reason="drained"`` frame."""
        self.begin_drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.serve.drain_timeout
        while self.sessions and loop.time() < deadline:
            await asyncio.sleep(self.serve.tick)
        for session in list(self.sessions.values()):
            await self._close_session(session, "drained", notify=True)

    async def stop(self) -> Dict[str, Any]:
        """Drain, tear everything down, and return the run summary.

        Safe to call exactly once; afterwards no task, transport or
        listener created by the gateway remains alive.
        """
        await self.drain()
        self._stopping.set()
        self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.ops is not None:
            await self.ops.stop()
        await self.sup.close()
        for task in self._tasks:
            await task
        # Connection handlers park on their client's EOF; closing the
        # transports (done in _close_session) unblocks them.
        for task in list(self._side_tasks):
            try:
                await asyncio.wait_for(task, self.serve.drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - defensive
                task.cancel()
        return self.summary()

    async def abort(self) -> None:
        """Tear down without draining, after a fatal error.

        :meth:`stop` awaits its tasks in order and re-raises the first
        failure (an :class:`InvariantViolation` out of the policy loop),
        leaving the rest running; this closes the listeners and cancels
        whatever is left.  Safe after a partial :meth:`stop`.
        """
        self._stopping.set()
        self._wake.set()
        if self._server is not None:
            self._server.close()
        if self.ops is not None:
            await self.ops.stop()
        await self.sup.close()
        # Finished tasks are awaited too: the one that failed still
        # holds the exception nobody has retrieved.
        tasks = [*self._tasks, *self._side_tasks]
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task

    # ------------------------------------------------------------------
    # Acceptor
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._side_tasks.add(task)
            task.add_done_callback(self._side_tasks.discard)
        if self.wrap_writer is not None:
            writer = self.wrap_writer(writer)
        try:
            await self._serve_connection(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        # The handshake deadline is a timer, not a Task: a mute client's
        # transport is aborted under it, which the read sees as EOF.
        deadline = loop.call_later(
            self.serve.handshake_timeout, writer.transport.abort
        )
        try:
            frame = await read_frame(reader)
        except (FrameError, ConnectionError, OSError):
            frame = None
        finally:
            deadline.cancel()
        if frame is None or frame.type != "request":
            self._handshake_errors += 1
            return
        try:
            video = int(frame.header["video"])
            time = float(frame.header["t"])
            retry = int(frame.header.get("retry", 0))
        except (KeyError, TypeError, ValueError):
            self._handshake_errors += 1
            reject = {"type": "reject", "reason": "malformed request"}
            await self._try_send(writer, encode_frame(reject))
            return
        if retry > 0:
            self._c_client_retries.inc()

        now = loop.time()
        self.clock.anchor(time, now, self.serve.startup_slack)
        self._seq += 1
        arrival = _Arrival(time, self._seq, video, writer, now)
        self.spans.record(
            arrival.seq, SpanPhase.ACCEPT, now, time, video=video,
            retry=retry,
        )
        heapq.heappush(self._pending, (arrival.order(), arrival))
        self._wake.set()

        # Park until the session (or a reject) closes the transport;
        # reading also notices a client that hangs up early.
        try:
            while True:
                tail = await read_frame(reader)
                if tail is None:
                    break
        except (FrameError, ConnectionError, OSError):
            pass
        session = self.sessions.get(arrival.seq)
        if session is not None:
            await self._close_session(session, "client_closed", notify=False)

    # ------------------------------------------------------------------
    # Policy loop
    # ------------------------------------------------------------------
    async def _policy_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            self.sup.beat("serve.policy")
            timeout = self.serve.tick
            if self._pending:
                due = (
                    self.clock.wall_for(self._pending[0][1].time)
                    + self.serve.reorder_window
                )
                timeout = min(timeout, max(0.0, due - loop.time()))
            timer = loop.call_later(timeout, self._wake.set)
            try:
                await self._wake.wait()
            finally:
                timer.cancel()
            self._wake.clear()

            while self._pending:
                arrival = self._pending[0][1]
                due = (
                    self.clock.wall_for(arrival.time)
                    + self.serve.reorder_window
                )
                if loop.time() < due and not self._draining:
                    break
                heapq.heappop(self._pending)
                self._process_arrival(arrival)

            # Lagged pacing advance: fire EFTF boundary events up to
            # `guard` wall-seconds behind the wall clock, but never past
            # a still-buffered arrival (the parity guard).
            if self.clock.anchored and not self._stopping.is_set():
                safe_vt = self.clock.virtual(loop.time() - self.serve.guard)
                if self._pending:
                    safe_vt = min(safe_vt, self._pending[0][1].time)
                self.bridge.advance(safe_vt)
                self._reconcile_membership()

    def _process_arrival(self, arrival: _Arrival) -> None:
        wall = self._loop.time() if self._loop is not None else 0.0
        if self._draining:
            self._drain_rejects += 1
            self._c_rejects.inc()
            self.spans.record(
                arrival.seq, SpanPhase.REJECT, wall, arrival.time,
                reason="draining",
            )
            self._respond(
                arrival.writer,
                {"type": "reject", "reason": "draining", "t": arrival.time},
                close=True,
            )
            return
        time = arrival.time
        if time < self.bridge.now:
            # An arrival outran the guard window (pathological wall-
            # clock stall).  Clamp to "now" so service continues, and
            # count it — the parity test asserts this stays at zero.
            self._parity_clamps += 1
            time = self.bridge.now
        try:
            decision = self.bridge.submit(time, arrival.video)
        except ParityError:  # pragma: no cover - clamped above
            self._handshake_errors += 1
            self._respond(
                arrival.writer,
                {"type": "reject", "reason": "internal error"},
                close=True,
            )
            return

        if not decision.accepted:
            self._c_rejects.inc()
            self.spans.record(
                arrival.seq, SpanPhase.REJECT, wall, decision.time,
                reason=decision.outcome, request=decision.request,
            )
            self._respond(
                arrival.writer,
                {
                    "type": "reject",
                    "reason": decision.outcome,
                    "t": decision.time,
                    "request": decision.request,
                },
                close=True,
            )
            return

        request = self.bridge.request_of(decision)
        assert request is not None, "accepted request missing from cluster"
        session = _Session(
            arrival.seq, decision, request, arrival.writer, self._burst_mb
        )
        self.sessions[arrival.seq] = session
        self._c_admits.inc()
        self.spans.record(
            arrival.seq, SpanPhase.ADMIT, wall, decision.time,
            request=decision.request, server=decision.server,
            migrated=decision.migrations > 0,
            epoch=self._membership_epoch,
        )
        if self.tracer is not None:
            peer = arrival.writer.get_extra_info("peername")
            self.tracer.emit(
                obs.TraceKind.SESSION_OPEN,
                decision.time,
                request=decision.request,
                video=decision.video,
                server=decision.server,
                peer=str(peer[1]) if peer else "?",
            )
        self._respond(
            arrival.writer,
            {
                "type": "admit",
                "t": decision.time,
                "request": decision.request,
                "video": decision.video,
                "server": decision.server,
                "size_mb": round(request.video.size, 9),
                "view_mb_s": request.view_bandwidth,
                "migrated": decision.migrations > 0,
            },
        )

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        header: Dict[str, Any],
        close: bool = False,
    ) -> None:
        """Send a control frame from the (sync) policy path.

        The bytes go to the transport *synchronously* so a pacing chunk
        scheduled in the same tick can never overtake the ``admit``
        frame.  When the kernel took them all there is nothing to drain
        and no Task is made; otherwise the (bounded) drain is deferred
        to one.
        """
        try:
            writer.write(encode_frame(header))
        except (ConnectionError, OSError):  # pragma: no cover - racy peer
            return
        if drained(writer):
            if close:
                writer.close()
            return

        async def _flush() -> None:
            try:
                await drain(writer, self.serve.send_timeout)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass
            if close:
                writer.close()

        task = asyncio.get_running_loop().create_task(_flush())
        self._side_tasks.add(task)
        task.add_done_callback(self._side_tasks.discard)

    async def _try_send(
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

    # ------------------------------------------------------------------
    # Server tasks (data plane)
    # ------------------------------------------------------------------
    def _spawn_server_task(self, sid: int) -> None:
        """Spawn (and instrument) the pacing task for server *sid*."""
        self._register_server_gauges(sid)
        self._tasks.append(
            self.sup.spawn(
                f"serve.server.{sid}",
                lambda s=sid: self._server_loop(s),
                where=f"server_loop.{sid}",
            )
        )

    def _reconcile_membership(self) -> None:
        """Align the task set with the policy core's membership epoch.

        Called from the policy loop right after every ``bridge.advance``
        — the only place cluster state moves — so a ``scale_out`` event
        fired during the advance has its ``serve.server.{sid}`` task
        (and gauges) before the next pacing tick.  Departed servers are
        not reaped here; their loops retire themselves (see
        :meth:`_server_loop`).
        """
        membership = self.bridge.controller.membership
        if membership.epoch == self._membership_epoch:
            return
        self._membership_epoch = membership.epoch
        for sid in self.bridge.controller.servers:
            if sid in self._instrumented_servers:
                continue
            if membership.state(sid) is ServerLifecycle.DEPARTED:
                continue
            self._spawn_server_task(sid)

    async def _server_loop(self, server_id: int) -> None:
        """Pace every session currently hosted by *server_id*.

        Sessions follow their request's ``server_id``, so a DRM
        migration hands the stream to the target server's task at the
        next tick — the live analogue of the switch gap.  When elastic
        scale-in departs the server, the loop returns cleanly once its
        last session has been handed off (a clean factory return ends
        supervision without a restart).
        """
        name = f"serve.server.{server_id}"
        membership = self.bridge.controller.membership
        while not self._stopping.is_set():
            await asyncio.sleep(self.serve.tick)
            self.sup.beat(name)
            if not self.clock.anchored:
                continue
            if (
                membership.state(server_id) is ServerLifecycle.DEPARTED
                and self._server_row(server_id)["sessions"] == 0
            ):
                return
            now_vt = self.bridge.now
            mine = [s for s in self.sessions.values() if s.owner == server_id]
            for session in mine:
                # Re-checked: an earlier pump may have waited on a slow
                # peer while this one was closed or migrated away.
                if session.closed or session.owner != server_id:
                    continue
                request = session.request
                if request.server_id is not None and (
                    request.server_id != session.server_id
                ):
                    session.migrations += 1
                    self.spans.record(
                        session.key, SpanPhase.HANDOFF,
                        self._loop.time() if self._loop else 0.0, now_vt,
                        source=session.server_id, target=request.server_id,
                    )
                    session.server_id = request.server_id
                await self._pump_session(session, now_vt)

    async def _pump_session(self, session: _Session, now_vt: float) -> None:
        request = session.request
        # The EFTF schedule integral at now_vt: between boundary events
        # the rate is constant, so this equals what Request.sync() will
        # record when the engine reaches now_vt.
        scheduled = min(
            request.video.size,
            request.bytes_sent
            + max(0.0, request.rate) * max(0.0, now_vt - request.last_sync),
        )
        session.bucket.credit(scheduled - session.scheduled_mb)
        session.scheduled_mb = max(session.scheduled_mb, scheduled)

        # Drain the whole bucket this tick (several burst-capped frames
        # after a wall-clock stall, one in steady state).  Stamping: the
        # frame that empties the bucket carries ``now_vt`` — at that
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
            mb = session.bucket.take()
            if mb <= _EPS_MB:
                break
            if session.bucket.tokens <= _EPS_MB:
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
            ok = await self._try_send(session.writer, data)
            if not ok:
                await self._close_session(session, "send_failed", notify=False)
                return
            session.chunks += 1
            session.delivered_mb = delivered_mb
            self._c_chunks.inc()
            self._c_chunk_mb.inc(mb)
            # Delivery lag behind the schedule: wall now minus the wall
            # time the chunk's virtual stamp maps to.  The pacer trails
            # the wall clock by `guard` on purpose, so steady state
            # reads ~guard*1000 ms; growth beyond that is real lag.
            if self._loop is not None:
                lag_ms = (
                    self._loop.time()
                    - self.clock.wall_for(session.last_stamp)
                ) * 1000.0
                self._h_latency.observe(max(0.0, lag_ms))
            if first_chunk:
                self.spans.record(
                    session.key, SpanPhase.PACING,
                    self._loop.time() if self._loop else 0.0, now_vt,
                    server=session.server_id,
                )

        if request.state is RequestState.DROPPED:
            await self._close_session(session, "dropped", notify=True)
        elif done and session.bucket.tokens <= _EPS_MB:
            self._h_buffer.observe(request.buffer_occupancy(now_vt))
            await self._close_session(session, "finished", notify=not ended)

    def _end_frame(
        self, session: _Session, reason: str, chunks: int, delivered_mb: float
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

    async def _close_session(
        self, session: _Session, reason: str, notify: bool
    ) -> None:
        if session.closed:
            return
        session.closed = True
        session.end_reason = reason
        self.sessions.pop(session.key, None)
        wall = self._loop.time() if self._loop is not None else 0.0
        if reason == "drained":
            self.spans.record(
                session.key, SpanPhase.DRAIN, wall, self.bridge.now
            )
        self.spans.record(
            session.key, SpanPhase.CLOSE, wall, self.bridge.now,
            reason=reason,
            delivered_mb=round(session.delivered_mb, 9),
            chunks=session.chunks,
        )
        if notify:
            await self._try_send(
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
                delivered_mb=round(session.delivered_mb, 9),
                chunks=session.chunks,
            )

    # ------------------------------------------------------------------
    # Live telemetry (ops endpoint + serve.stats sampler)
    # ------------------------------------------------------------------
    def vt_lag(self) -> float:
        """Virtual seconds the policy clock trails the wall clock.

        The wall clock implies a virtual "now" through the affine map;
        the pacer deliberately holds the engine ``guard`` wall-seconds
        behind it, so steady state reads ``guard * compression``.
        Growth beyond that means the policy loop is falling behind.
        """
        if self._loop is None or not self.clock.anchored:
            return 0.0
        return max(
            0.0, self.clock.virtual(self._loop.time()) - self.bridge.now
        )

    def guard_occupancy(self) -> float:
        """:meth:`vt_lag` as a fraction of the guard window (~1.0 is
        nominal; > 1 means arrivals may be waiting on the policy loop)."""
        window = self.serve.guard * self.serve.compression
        return self.vt_lag() / window if window > 0 else 0.0

    def uptime(self) -> float:
        """Wall seconds since :meth:`start` (0 before)."""
        if self._loop is None or self._started_wall is None:
            return 0.0
        return self._loop.time() - self._started_wall

    def _server_row(self, server_id: int) -> Dict[str, float]:
        """Live load of one server: session count, scheduled bandwidth
        (EFTF rate sum, Mb/s virtual) and token-bucket fill (Mb)."""
        sessions = 0
        rate = 0.0
        bucket_mb = 0.0
        for session in self.sessions.values():
            if session.owner != server_id or session.closed:
                continue
            sessions += 1
            rate += max(0.0, session.request.rate)
            bucket_mb += session.bucket.tokens
        return {
            "sessions": sessions,
            "scheduled_mb_s": round(rate, 6),
            "bucket_mb": round(bucket_mb, 6),
        }

    def _server_rows(self) -> Dict[str, Dict[str, Any]]:
        """Per-server load rows, annotated with the membership lifecycle
        state."""
        membership = self.bridge.controller.membership
        rows: Dict[str, Dict[str, Any]] = {}
        for sid in self.bridge.controller.servers:
            row: Dict[str, Any] = dict(self._server_row(sid))
            row["state"] = membership.state(sid).value
            rows[str(sid)] = row
        return rows

    async def _stats_loop(self) -> None:
        """Sample gateway state into ``serve.stats`` trace records.

        The samples are the time series ``repro top --trace`` replays
        and the flight recorder's postmortem window carries — cheap
        enough to always run when a tracer is attached.
        """
        while not self._stopping.is_set():
            await asyncio.sleep(self.serve.stats_interval)
            if self.tracer is None or not self.clock.anchored:
                continue
            self._emit_stats()

    def _emit_stats(self) -> None:
        assert self.tracer is not None
        pct = self._h_latency.percentiles((50.0, 95.0, 99.0))
        self.tracer.emit(
            obs.TraceKind.SERVE_STATS,
            self.bridge.now,
            wall=round(self._loop.time(), 3) if self._loop else 0.0,
            uptime_s=round(self.uptime(), 3),
            admits=int(self._c_admits.value),
            rejects=int(self._c_rejects.value),
            active=len(self.sessions),
            chunks=int(self._c_chunks.value),
            chunk_mb=round(self._c_chunk_mb.value, 6),
            vt_lag_s=round(self.vt_lag(), 6),
            guard_occupancy=round(self.guard_occupancy(), 4),
            latency_ms={
                "p50": pct[50.0], "p95": pct[95.0], "p99": pct[99.0]
            },
            membership_epoch=self._membership_epoch,
            servers=self._server_rows(),
            cache=self._cache_stats(),
        )

    def _cache_stats(self) -> Optional[Dict[str, Any]]:
        """Prefix-tier stats dict, or None when the tier is off."""
        tier = getattr(self.bridge.sim, "prefix_tier", None)
        return tier.stats() if tier is not None else None

    # -- ops verb bodies (framed by repro.serve.ops) -------------------
    def ops_stats(self) -> Dict[str, Any]:
        """``ops stats``: the atomic metrics snapshot plus run framing.

        "Atomic" by construction: the gateway is single-threaded on the
        event loop, so nothing mutates between two instrument reads of
        one snapshot.
        """
        return {
            "wall_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "uptime_s": round(self.uptime(), 3),
            "virtual_now": round(self.bridge.now, 9),
            "anchored": self.clock.anchored,
            "draining": self._draining,
            "decisions": len(self.bridge.decisions),
            "cache": self._cache_stats(),
            "metrics": self.registry.snapshot(),
        }

    def ops_health(self) -> Dict[str, Any]:
        """``ops health``: one cheap verdict plus the pacing gauges."""
        if self._draining:
            status = "draining"
        elif not self.clock.anchored:
            status = "idle"
        else:
            status = "serving"
        return {
            "status": status,
            "anchored": self.clock.anchored,
            "uptime_s": round(self.uptime(), 3),
            "virtual_now": round(self.bridge.now, 9),
            "vt_lag_s": round(self.vt_lag(), 6),
            "guard_occupancy": round(self.guard_occupancy(), 4),
            "sessions_active": len(self.sessions),
            "arrivals_pending": len(self._pending),
            "admits": int(self._c_admits.value),
            "rejects": int(self._c_rejects.value),
            "chunks": int(self._c_chunks.value),
            "chunk_mb": round(self._c_chunk_mb.value, 6),
            "client_retries": int(self._c_client_retries.value),
            "supervisor": self.sup.report(),
            "latency_ms": {
                f"p{q:g}": v
                for q, v in self._h_latency.percentiles(
                    (50.0, 95.0, 99.0)
                ).items()
            },
            "membership": self.bridge.controller.membership.to_dict(),
            "cache": self._cache_stats(),
            "servers": self._server_rows(),
        }

    def ops_sessions(self, recent: int = 20) -> Dict[str, Any]:
        """``ops sessions``: live per-session rows + recent spans."""
        active = []
        for key in sorted(self.sessions):
            session = self.sessions[key]
            span = self.spans.get(key)
            active.append({
                "key": key,
                "request": session.decision.request,
                "video": session.decision.video,
                "server": session.server_id,
                "phase": span.phase.value if span and span.phase else None,
                "delivered_mb": round(session.delivered_mb, 6),
                "scheduled_mb": round(session.scheduled_mb, 6),
                "bucket_mb": round(session.bucket.tokens, 6),
                "chunks": session.chunks,
                "migrations": session.migrations,
            })
        return {
            "active": active,
            "recent": [s.to_dict() for s in self.spans.recent(recent)],
            "spans_recorded": self.spans.recorded,
        }

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Provenance-stamped summary of the live run (JSON-ready)."""
        policy = self.bridge.finalize()
        return {
            "provenance": obs.run_provenance(
                seed=self.config.seed,
                config=self.config,
                extra={"mode": "serve", "serve": self.serve.to_dict()},
            ),
            "policy": policy,
            "serve": {
                "admits": int(self._c_admits.value),
                "rejects": int(self._c_rejects.value),
                "drain_rejects": self._drain_rejects,
                "chunks": int(self._c_chunks.value),
                "chunk_megabits": round(self._c_chunk_mb.value, 6),
                "send_retries": int(self._c_retries.value),
                "client_retries": int(self._c_client_retries.value),
                "parity_clamps": self._parity_clamps,
                "handshake_errors": self._handshake_errors,
                "open_sessions": len(self.sessions),
                "membership": self.bridge.controller.membership.to_dict(),
                "supervisor": self.sup.report(),
                "client_buffer_mb": self._h_buffer.snapshot(),
                "chunk_latency_ms": self._h_latency.snapshot(),
            },
            "decisions": [d.to_wire() for d in self.bridge.decisions],
        }
