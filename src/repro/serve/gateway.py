"""The cluster gateway: live admission over TCP.

The gateway is the wall-clock incarnation of the paper's *distribution
controller*; the data servers it hands admitted streams to are
:mod:`repro.serve.pacing`, and its self-description is
:mod:`repro.serve.telemetry`.  One asyncio process runs:

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
* N **server tasks** (one :meth:`Pacer.server_loop` per cluster server)
  that pace the admitted sessions.  Under elastic membership
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
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set

from repro import obs
from repro.cluster.membership import ServerLifecycle
from repro.obs.spans import SpanPhase
from repro.serve import telemetry
from repro.serve.bridge import ParityError, PolicyBridge
from repro.serve.config import ServeConfig
from repro.serve.ops import OpsEndpoint
from repro.serve.pacing import Pacer, Session, VirtualClock
from repro.serve.supervisor import TaskSupervisor
from repro.serve.protocol import (
    FrameError,
    close_writer,
    drain,
    drained,
    encode_frame,
    read_frame,
)
from repro.simulation import SimulationConfig


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


class _Arrival(NamedTuple):
    """One admission request parked in the reorder heap, which orders
    on ``(time, seq)`` — ``seq`` is unique, so nothing later compares."""

    time: float
    seq: int
    video: int
    writer: asyncio.StreamWriter


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
        self.clock = VirtualClock(self.serve.compression)
        self.registry = self.bridge.sim.registry
        #: Twice-clocked lifecycle spans, live-queryable via the ops
        #: endpoint and mirrored into the trace (docs/OBSERVABILITY.md).
        self.spans = obs.SpanLog(tracer=tracer)
        self.ops: Optional[OpsEndpoint] = (
            OpsEndpoint(self) if self.serve.ops_port is not None else None
        )
        self._stopping = asyncio.Event()
        #: Heartbeat + restart supervision of every gateway loop
        #: (docs/ROBUSTNESS.md, "live chaos").  The recorder is read
        #: lazily — callers may attach it after construction.
        self.sup = TaskSupervisor(
            should_stop=self._stopping.is_set,
            recorder=lambda: self.recorder,
            tracer=tracer,
            now_virtual=lambda: self.bridge.now,
            heartbeat_timeout=self.serve.heartbeat_timeout,
            restart_limit=self.serve.task_restart_limit,
        )
        #: The data servers: the session table and its pacing loops.
        self.pacer = Pacer(
            self.serve, self.bridge, self.clock, self.spans, self.sup, tracer
        )
        self.sessions = self.pacer.sessions
        #: The reorder heap: arrivals waiting out their window.
        self.pending: List[_Arrival] = []
        self.draining = False

        self._server: Optional[asyncio.AbstractServer] = None
        self._started_wall = 0.0
        self._side_tasks: Set[asyncio.Task] = set()
        self._wake = asyncio.Event()
        self._seq = 0
        #: Server ids whose ``serve.server.{sid}`` gauges (and, once
        #: started, task) exist.  Seed members are instrumented here;
        #: elastic joiners by :meth:`_reconcile_membership` at their
        #: membership epoch.
        self._instrumented_servers: Set[int] = set()
        self._membership_epoch = 0

        reg = self.registry
        telemetry.instrument(self)
        for sid in self.bridge.controller.servers:
            self._instrument_server(sid)
        self._c_admits = reg.counter("serve.admits")
        self._c_rejects = reg.counter("serve.rejects")
        self._c_drain_rejects = reg.counter("serve.drain_rejects")
        self._c_client_retries = reg.counter("serve.client_retries")
        # The parity contract says the first of these stays zero; both
        # are registry counters so every scrape can see that it does.
        self._c_parity_clamps = reg.counter("serve.parity_clamps")
        self._c_handshake_errors = reg.counter("serve.handshake_errors")

    def _instrument_server(self, sid: int) -> None:
        if sid not in self._instrumented_servers:
            self._instrumented_servers.add(sid)
            telemetry.instrument_server(self, sid)

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
        self.clock.wall = asyncio.get_running_loop().time
        self._started_wall = self.clock.wall()
        if self.ops is not None:
            await self.ops.start()
        self.sup.spawn("serve.policy", self._policy_loop, "policy_loop")
        for sid in self.bridge.controller.servers:
            self._spawn_server_task(sid)
        self._membership_epoch = self.bridge.controller.membership.epoch
        if self.tracer is not None:
            self.sup.spawn("serve.stats", self._stats_loop, "stats_loop")

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
        self.draining = True
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
            await self.pacer.close_session(session, "drained", notify=True)

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
        for task in self.sup.tasks():
            await task
        # Connection handlers park on their client's EOF; closing the
        # transports (done in Pacer.close_session) unblocks them.
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
        tasks = [*self.sup.tasks(), *self._side_tasks]
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task

    # ------------------------------------------------------------------
    # Acceptor
    # ------------------------------------------------------------------
    def _track(self, task: Optional[asyncio.Task]) -> None:
        """Own *task* until it finishes (joined by :meth:`stop`)."""
        if task is not None:
            self._side_tasks.add(task)
            task.add_done_callback(self._side_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._track(asyncio.current_task())
        if self.wrap_writer is not None:
            writer = self.wrap_writer(writer)
        try:
            await self._serve_connection(reader, writer)
        finally:
            await close_writer(writer)

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
            self._c_handshake_errors.inc()
            return
        try:
            video = int(frame.header["video"])
            time = float(frame.header["t"])
            retry = int(frame.header.get("retry", 0))
        except (KeyError, TypeError, ValueError):
            self._c_handshake_errors.inc()
            reject = {"type": "reject", "reason": "malformed request"}
            await self.pacer.try_send(writer, encode_frame(reject))
            return
        if retry > 0:
            self._c_client_retries.inc()

        now = loop.time()
        self.clock.anchor(time, now, self.serve.startup_slack)
        self._seq += 1
        arrival = _Arrival(time, self._seq, video, writer)
        self.spans.record(
            arrival.seq, SpanPhase.ACCEPT, now, time, video=video,
            retry=retry,
        )
        heapq.heappush(self.pending, arrival)
        self._wake.set()

        # Park until the session (or a reject) closes the transport;
        # reading also notices a client that hangs up early.
        try:
            while await read_frame(reader) is not None:
                pass
        except (FrameError, ConnectionError, OSError):
            pass
        session = self.sessions.get(arrival.seq)
        if session is not None:
            await self.pacer.close_session(
                session, "client_closed", notify=False
            )

    # ------------------------------------------------------------------
    # Policy loop
    # ------------------------------------------------------------------
    def _due(self) -> float:
        """Wall time the head of the reorder heap may be decided at."""
        return (
            self.clock.wall_for(self.pending[0].time)
            + self.serve.reorder_window
        )

    async def _policy_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            self.sup.beat("serve.policy")
            timeout = self.serve.tick
            if self.pending:
                timeout = min(timeout, max(0.0, self._due() - loop.time()))
            timer = loop.call_later(timeout, self._wake.set)
            try:
                await self._wake.wait()
            finally:
                timer.cancel()
            self._wake.clear()

            while self.pending:
                if loop.time() < self._due() and not self.draining:
                    break
                self._process_arrival(heapq.heappop(self.pending))

            # Lagged pacing advance: fire EFTF boundary events up to
            # `guard` wall-seconds behind the wall clock, but never past
            # a still-buffered arrival (the parity guard).
            if self.clock.anchored and not self._stopping.is_set():
                safe_vt = self.clock.virtual(loop.time() - self.serve.guard)
                if self.pending:
                    safe_vt = min(safe_vt, self.pending[0].time)
                self.bridge.advance(safe_vt)
                self._reconcile_membership()

    def _reject(
        self, arrival: _Arrival, reason: str, time: float, **ids: Any
    ) -> None:
        """Refuse *arrival*: count it, span it, answer it, hang up."""
        self._c_rejects.inc()
        self.spans.record(
            arrival.seq, SpanPhase.REJECT, self.clock.wall(), time,
            reason=reason, **ids,
        )
        self._respond(
            arrival.writer,
            {"type": "reject", "reason": reason, "t": time, **ids},
            close=True,
        )

    def _process_arrival(self, arrival: _Arrival) -> None:
        if self.draining:
            self._c_drain_rejects.inc()
            self._reject(arrival, "draining", arrival.time)
            return
        time = arrival.time
        if time < self.bridge.now:
            # An arrival outran the guard window (pathological wall-
            # clock stall).  Clamp to "now" so service continues, and
            # count it — the parity test asserts this stays at zero.
            self._c_parity_clamps.inc()
            time = self.bridge.now
        try:
            decision = self.bridge.submit(time, arrival.video)
        except ParityError:  # pragma: no cover - clamped above
            self._c_handshake_errors.inc()
            self._reject(arrival, "internal error", time)
            return
        if not decision.accepted:
            self._reject(
                arrival, decision.outcome, decision.time,
                request=decision.request,
            )
            return

        request = self.bridge.request_of(decision)
        assert request is not None, "accepted request missing from cluster"
        self.sessions[arrival.seq] = Session(
            arrival.seq, decision, request, arrival.writer
        )
        self._c_admits.inc()
        self.spans.record(
            arrival.seq, SpanPhase.ADMIT, self.clock.wall(), decision.time,
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

        self._track(asyncio.get_running_loop().create_task(_flush()))

    # ------------------------------------------------------------------
    # Membership reconcile (which data servers exist)
    # ------------------------------------------------------------------
    def _spawn_server_task(self, sid: int) -> None:
        """Spawn (and instrument) the pacing task for server *sid*."""
        self._instrument_server(sid)
        self.sup.spawn(
            f"serve.server.{sid}",
            lambda: self.pacer.server_loop(sid),
            f"server_loop.{sid}",
        )

    def _reconcile_membership(self) -> None:
        """Align the task set with the policy core's membership epoch.

        Called from the policy loop right after every ``bridge.advance``
        — the only place cluster state moves — so a ``scale_out`` event
        fired during the advance has its ``serve.server.{sid}`` task
        (and gauges) before the next pacing tick.  Departed servers are
        not reaped here; their loops retire themselves (see
        :meth:`Pacer.server_loop`).
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

    # ------------------------------------------------------------------
    # Self-description (everything else: repro.serve.telemetry)
    # ------------------------------------------------------------------
    def vt_lag(self) -> float:
        """Virtual seconds the policy clock trails the wall clock.

        The wall clock implies a virtual "now" through the affine map;
        the pacer deliberately holds the engine ``guard`` wall-seconds
        behind it, so steady state reads ``guard * compression``.
        Growth beyond that means the policy loop is falling behind.
        """
        return max(
            0.0, self.clock.virtual(self.clock.wall()) - self.bridge.now
        )

    def uptime(self) -> float:
        """Wall seconds since :meth:`start` (0 before: the unstarted
        clock reads 0)."""
        return self.clock.wall() - self._started_wall

    async def _stats_loop(self) -> None:
        """Sample the telemetry snapshot into ``serve.stats`` records.

        The samples are the time series ``repro top --trace`` replays
        and the flight recorder's postmortem window carries — cheap
        enough to always run when a tracer is attached.
        """
        assert self.tracer is not None
        while not self._stopping.is_set():
            await asyncio.sleep(self.serve.stats_interval)
            if self.clock.anchored:
                self.tracer.emit(
                    obs.TraceKind.SERVE_STATS,
                    self.bridge.now,
                    **telemetry.snapshot(self),
                )

    def summary(self) -> Dict[str, Any]:
        """Provenance-stamped summary of the live run (JSON-ready)."""
        policy = self.bridge.finalize()
        histogram = self.registry.histogram
        return {
            "provenance": obs.run_provenance(
                seed=self.config.seed,
                config=self.config,
                extra={"mode": "serve", "serve": self.serve.to_dict()},
            ),
            "policy": policy,
            "serve": {
                **telemetry.snapshot(self),
                "client_buffer_mb":
                    histogram("serve.client_buffer_mb").snapshot(),
                "chunk_latency_ms":
                    histogram("serve.chunk_latency_ms").snapshot(),
            },
            "decisions": [d.to_wire() for d in self.bridge.decisions],
        }
