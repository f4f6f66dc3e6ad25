"""Load generator: live clients replaying a workload arrival process.

The client side of docs/SERVING.md.  :func:`arrival_trace` materialises
the arrivals a scenario's simulation decides — its own arrival process,
drawn from its own ``arrivals`` stream; :class:`LoadGenerator` replays
them in wall time — each arrival's virtual time divided by the
compression factor — opening one TCP connection per request.

Each :class:`_LiveClient` models the paper's client: it requests a
video, and on admission maintains a **staging buffer** filled by the
gateway's paced chunks and drained by playback at the view bandwidth.
Underrun accounting runs in *virtual* time using the chunk frames'
embedded timestamps, so a verdict of "zero underruns" reflects the
schedule the gateway actually produced, not the wall-clock jitter of a
busy CI host: at each chunk the client checks that the data delivered
so far covers playback up to that chunk's virtual time (playback
starting at the first chunk).  Under EFTF's minimum-flow guarantee the
transmitted prefix always covers playback from admission, so a
correctly paced gateway can never trip it.

Clients are **resilient** (docs/ROBUSTNESS.md, "live chaos"): a
transport failure or a server-crash drop never escapes a client as a
traceback — it is recorded as a *typed* session error
(:attr:`SessionOutcome.error_type`), and with a
:class:`~repro.faults.retry.RetryPolicy` attached the client reconnects
and re-requests with the same bounded-backoff semantics the simulator's
retry queue uses.  Re-request timestamps are anchored in *virtual* time
(the drop frame's ``t`` stamp, or a chaos plan's pre-drawn cut time —
never before the cut attempt's own request) plus
:attr:`ServeConfig.retry_margin` plus a backoff delay drawn
from a per-attempt named substream — so two same-seed chaos runs replay
byte-identical retry timelines and the parity contract survives client
failures.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.retry import RetryPolicy
from repro.serve.config import ServeConfig
from repro.serve.pacing import VirtualClock
from repro.serve.protocol import (
    FrameError,
    close_writer,
    read_frame,
    write_frame,
)
from repro.sim.rng import RandomStreams
from repro.simulation import Simulation
from repro.workload.arrivals import ARRIVALS
from repro.workload.trace import RequestSpec, Trace

#: Playback-coverage slack, Mb: absorbs float noise in chunk accounting.
_EPS_MB = 1e-6


def arrival_trace(
    sim: Simulation,
    duration: Optional[float] = None,
    max_sessions: Optional[int] = None,
) -> Trace:
    """The arrivals a run of *sim* decides, up to *duration* (default:
    its config's), at most *max_sessions* of them: its own arrival
    process's draw loop on a fresh copy of its ``arrivals`` stream, at
    the rate and demand its build stages derived.  *sim* is left as it
    was, run or not.
    """
    config = sim.config
    draws = ARRIVALS[config.arrivals].draws(
        sim.arrival_rate, sim.popularity, sim.streams.fresh("arrivals"),
        **dict(config.arrival_params),
    )
    horizon = config.duration if duration is None else duration
    specs: List[RequestSpec] = []
    for time, video in draws:
        if time > horizon or len(specs) == max_sessions:
            break
        if video is not None:
            specs.append(RequestSpec(time, video))
    return Trace(specs)


@dataclass
class SessionOutcome:
    """One live session as the client experienced it."""

    index: int                      #: position in the trace
    time: float                     #: virtual arrival time
    video: int
    outcome: str                    #: admission outcome / error class
    request: Optional[int] = None   #: cluster request id (from admit)
    server: Optional[int] = None    #: first hosting server
    reason: Optional[str] = None    #: reject reason or end reason
    size_mb: float = 0.0
    delivered_mb: float = 0.0       #: megabits received in chunk frames
    payload_bytes: int = 0          #: raw payload bytes received
    chunks: int = 0
    migrations: int = 0             #: observed server handoffs
    underruns: int = 0              #: staging-buffer misses (virtual)
    max_buffer_mb: float = 0.0      #: peak staging occupancy seen
    wall_seconds: float = 0.0
    retries: int = 0                #: reconnect attempts made
    error_type: Optional[str] = None  #: exception class of the last error
    #: Every cluster request id this session was admitted as (one per
    #: successful re-request) — the chaos plane reconciles failover
    #: reports against these.
    request_ids: List[int] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.outcome in ("accepted", "accepted_with_migration")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "t": round(self.time, 9),
            "video": self.video,
            "outcome": self.outcome,
            "request": self.request,
            "server": self.server,
            "reason": self.reason,
            "size_mb": round(self.size_mb, 6),
            "delivered_mb": round(self.delivered_mb, 6),
            "payload_bytes": self.payload_bytes,
            "chunks": self.chunks,
            "migrations": self.migrations,
            "underruns": self.underruns,
            "max_buffer_mb": round(self.max_buffer_mb, 6),
            "wall_seconds": round(self.wall_seconds, 3),
            "retries": self.retries,
            "error_type": self.error_type,
            "requests": list(self.request_ids),
        }


@dataclass
class LoadReport:
    """Aggregate of one load-generator run."""

    sessions: List[SessionOutcome] = field(default_factory=list)
    peak_concurrency: int = 0

    @property
    def accepted(self) -> int:
        return sum(1 for s in self.sessions if s.accepted)

    @property
    def rejected(self) -> int:
        return sum(1 for s in self.sessions if s.outcome == "rejected")

    @property
    def errors(self) -> int:
        return sum(1 for s in self.sessions if s.outcome == "error")

    @property
    def lost(self) -> int:
        """Sessions that were admitted but never finished (dropped or
        disconnected with the retry budget exhausted)."""
        return sum(1 for s in self.sessions if s.outcome == "lost")

    @property
    def retries(self) -> int:
        """Total client reconnect attempts across the run."""
        return sum(s.retries for s in self.sessions)

    @property
    def underruns(self) -> int:
        return sum(s.underruns for s in self.sessions)

    @property
    def delivered_mb(self) -> float:
        return sum(s.delivered_mb for s in self.sessions)

    def error_types(self) -> Dict[str, int]:
        """Typed error histogram: exception class -> session count."""
        counts: Dict[str, int] = {}
        for s in self.sessions:
            if s.error_type is not None:
                counts[s.error_type] = counts.get(s.error_type, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sessions": len(self.sessions),
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "lost": self.lost,
            "retries": self.retries,
            "error_types": self.error_types(),
            "underruns": self.underruns,
            "delivered_mb": round(self.delivered_mb, 6),
            "peak_concurrency": self.peak_concurrency,
            "outcomes": [s.to_dict() for s in self.sessions],
        }


#: Transport failures a resilient client absorbs as typed errors.
_CLIENT_ERRORS = (
    FrameError,
    ConnectionError,          # includes ConnectionResetError
    asyncio.IncompleteReadError,
    EOFError,
    OSError,
)


class _LiveClient:
    """One session: request, then buffer-and-play until ``end``.

    Without a retry policy a transport failure ends the session as a
    typed error.  With one, the client walks the bounded-backoff
    reconnect path: each re-request carries a fresh virtual timestamp
    (drop/cut anchor + ``retry_margin`` + a jittered backoff delay
    drawn from the ``serve.client.<i>.retry<k>`` substream) and a
    ``retry`` header field announcing the attempt, so the gateway's
    spans and counters see the reconnect for what it is.

    Args:
        serve: wall-clock knobs (must match the gateway's).
        index: the arrival's position in the trace (substream key).
        spec: what to request and when (virtual time).
        rng: substream factory for backoff jitter draws.
        wall_for: maps a virtual time to the shared event-loop clock
            (the load generator's dispatch map), so reconnect sleeps
            land exactly where the timestamp promises.
        retry: optional bounded-backoff policy; delays are read as
            *virtual* seconds.  ``None`` disables reconnects.
        faults: optional per-session hook (duck-typed): ``cut_vt`` —
            a pre-drawn virtual stamp at which the client severs its
            connection once (:class:`repro.serve.chaos.ClientFaultPlan`),
            or None; and, optionally, ``wrap(reader, writer)``, which
            wraps each connection's streams.  ``bench/runners.py``'s
            ``_SessionProbe`` wraps them to time ``live_loopback``'s
            admit latency.
    """

    def __init__(
        self,
        serve: ServeConfig,
        index: int,
        spec: RequestSpec,
        rng: RandomStreams,
        wall_for: Callable[[float], float],
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Any] = None,
    ) -> None:
        self.serve = serve
        self.index = index
        self.spec = spec
        self.retry = retry
        self.rng = rng
        self.faults = faults
        self.wall_for = wall_for
        self.outcome = SessionOutcome(
            index=index, time=spec.time, video=spec.video_id, outcome="error"
        )

    async def run(self) -> SessionOutcome:
        loop = asyncio.get_running_loop()
        started = loop.time()
        out = self.outcome
        t_req = self.spec.time
        attempt = 0
        try:
            while True:
                verdict, anchor = await self._attempt(t_req, attempt)
                if verdict == "done":
                    break
                # verdict in ("dropped", "cut", "disconnected"):
                # retryable when a policy grants another attempt.
                if (
                    self.retry is None
                    or attempt + 1 >= self.retry.max_attempts
                ):
                    if out.accepted or verdict == "dropped":
                        out.outcome = "lost" if self.retry else out.outcome
                    break
                attempt += 1
                out.retries = attempt
                draw = float(
                    self.rng.fresh(
                        f"serve.client.{self.index}.retry{attempt}"
                    ).random()
                )
                t_req = (
                    anchor
                    + self.serve.to_virtual(self.serve.retry_margin)
                    + self.retry.delay_for(attempt, draw)
                )
                # Park until the re-request's virtual timestamp is due.
                delay = self.wall_for(t_req) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
        finally:
            out.wall_seconds = loop.time() - started
        return out

    async def _attempt(self, t_req: float, attempt: int) -> Tuple[str, float]:
        """One connect/request/stream cycle.

        Returns ``(verdict, anchor)``: verdict ``"done"`` for any
        terminal outcome, else the failure class (``"dropped"``,
        ``"cut"``, ``"disconnected"``) with the virtual time the next
        request should anchor its timestamp on.
        """
        out = self.outcome
        try:
            reader, writer = await asyncio.open_connection(
                self.serve.host, self.serve.port
            )
        except (ConnectionError, OSError) as exc:
            out.error_type = type(exc).__name__
            out.reason = f"connect: {exc}"
            return "disconnected", t_req
        wrap = getattr(self.faults, "wrap", None) if self.faults else None
        if callable(wrap):
            reader, writer = wrap(reader, writer)
        try:
            return await self._session(reader, writer, t_req, attempt)
        except _CLIENT_ERRORS as exc:
            out.error_type = type(exc).__name__
            out.outcome = "error" if not out.accepted else out.outcome
            out.reason = f"{type(exc).__name__}: {exc}"
            return "disconnected", max(t_req, out.time)
        except asyncio.TimeoutError:
            out.error_type = "TimeoutError"
            out.outcome = "error" if not out.accepted else out.outcome
            out.reason = "timeout waiting for gateway"
            return "disconnected", t_req
        finally:
            await close_writer(writer)

    def _fire_cut(self, due: bool) -> bool:
        """Resolve the pre-drawn chaos cut (at most once) when *due*:
        sever the connection at that virtual stamp and re-request
        anchored on it."""
        if not due or getattr(self.faults, "cut_done", False):
            return False
        self.faults.cut_done = True
        self.outcome.reason = "chaos cut"
        self.outcome.error_type = "ChaosCut"
        return True

    async def _session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        t_req: float,
        attempt: int,
    ) -> Tuple[str, float]:
        out = self.outcome
        header: Dict[str, Any] = {
            "type": "request",
            "video": self.spec.video_id,
            "t": round(t_req, 9),
        }
        if attempt:
            header["retry"] = attempt
        await write_frame(writer, header, timeout=self.serve.send_timeout)
        # Admission may lag by startup slack + reorder window + queueing.
        frame = await read_frame(reader, timeout=self.serve.handshake_timeout)
        if frame is None:
            out.reason = "gateway closed before answering"
            return "disconnected", t_req
        if frame.type == "reject":
            out.outcome = "rejected"
            out.reason = str(frame.header.get("reason"))
            out.request = frame.header.get("request")
            return "done", t_req
        if frame.type != "admit":
            out.reason = f"unexpected frame {frame.type!r}"
            return "done", t_req

        out.outcome = "accepted"
        out.request = frame.header.get("request")
        if out.request is not None and out.request not in out.request_ids:
            out.request_ids.append(out.request)
        out.server = frame.header.get("server")
        out.size_mb = float(frame.header.get("size_mb", 0.0))
        if frame.header.get("migrated"):
            out.outcome = "accepted_with_migration"
        view_mb = float(frame.header.get("view_mb_s", 0.0))

        cut_vt: Optional[float] = (
            getattr(self.faults, "cut_vt", None) if self.faults else None
        )
        if cut_vt is not None:
            # A cut drawn for a time before this attempt's request
            # severs it at its start: re-requesting from the drawn time
            # could land behind the policy clock.
            cut_vt = max(cut_vt, t_req)
        playback_t0: Optional[float] = None  # virtual playback origin
        delivered = 0.0                      # this attempt's delivery
        last_server = out.server
        last_t = t_req
        while True:
            frame = await read_frame(
                reader, timeout=self.serve.handshake_timeout
            )
            if frame is None:
                out.reason = "disconnected"
                out.error_type = out.error_type or "ConnectionClosed"
                return "disconnected", last_t
            if frame.type == "chunk":
                t = float(frame.header.get("t", 0.0))
                last_t = max(last_t, t)
                mb = float(frame.header.get("mb", 0.0))
                out.delivered_mb += mb
                delivered += mb
                out.payload_bytes += len(frame.payload)
                out.chunks += 1
                server = frame.header.get("server")
                if server != last_server:
                    out.migrations += 1
                    last_server = server
                if playback_t0 is None:
                    playback_t0 = t
                # Staging-buffer model, virtual time: playback has
                # consumed view_mb * (t - t0); everything delivered
                # beyond that (this attempt) is buffered.
                played = min(out.size_mb, view_mb * (t - playback_t0))
                buffered = delivered - played
                if buffered < -_EPS_MB:
                    out.underruns += 1
                out.max_buffer_mb = max(out.max_buffer_mb, buffered)
                if self._fire_cut(cut_vt is not None and t >= cut_vt):
                    return "cut", cut_vt
            elif frame.type == "end":
                out.reason = str(frame.header.get("reason"))
                end_t = frame.header.get("t")
                # A pre-drawn cut landing before the stream's true
                # virtual end fires even when the chunk that would have
                # triggered it lost a wall-clock race with the end
                # frame: the chaos decision is resolved in virtual time,
                # whichever frame crossed the wire first.
                if self._fire_cut(
                    cut_vt is not None
                    and end_t is not None
                    and cut_vt < float(end_t)
                ):
                    return "cut", cut_vt
                if out.reason == "dropped":
                    # The policy core dropped us (server crash).  The
                    # frame carries the exact virtual drop time.
                    anchor = float(end_t) if end_t is not None else last_t
                    return "dropped", anchor
                return "done", last_t
            else:
                out.reason = f"unexpected frame {frame.type!r}"
                return "done", last_t


class LoadGenerator:
    """Replay a trace against a gateway, one live client per arrival.

    Args:
        serve: wall-clock knobs; must match the gateway's ``host``,
            ``port`` and ``compression``.
        trace: the arrival trace to replay; build one with
            :func:`arrival_trace` to reproduce a scenario's workload.
        progress: optional callable given one status line every
            :attr:`ServeConfig.progress_interval` (2) wall seconds;
            ``repro loadgen`` and ``repro verify`` print it to stderr.
            ``None`` (default) runs silently.
        retry: optional :class:`~repro.faults.retry.RetryPolicy` making
            every client resilient — disconnects and drops reconnect
            with bounded virtual-time backoff instead of ending the
            session (docs/ROBUSTNESS.md, "live chaos").
        seed: root seed of the clients' backoff-jitter substreams;
            use the scenario's seed so two same-seed runs replay
            identical retry timelines.
        faults: optional per-session hook factory (index -> hook or
            ``None``): a :class:`repro.serve.chaos.ClientFaultPlan`'s
            ``cut_vt``, plus an optional ``wrap`` (see
            :class:`_LiveClient`).
    """

    def __init__(
        self,
        serve: ServeConfig,
        trace: Trace,
        progress: Optional[Callable[[str], None]] = None,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        faults: Optional[Callable[[int], Optional[Any]]] = None,
    ) -> None:
        self.serve = serve
        self.trace = trace
        self.progress = progress
        self.retry = retry
        self.faults = faults
        self._rng = RandomStreams(seed=seed)
        self._active = 0
        self._peak = 0
        self._done = 0
        #: The dispatch map, anchored by :meth:`run` so the first
        #: arrival fires at once.  That is ``startup_slack`` ahead of
        #: the gateway's own map (the gateway anchors the first arrival
        #: that far in the future), so frames sent on this map always
        #: land *early* relative to the policy clock — reconnects can
        #: never force a parity clamp.
        self._clock = VirtualClock(serve.compression)
        #: Live outcome objects (clients mutate these in place), so the
        #: reporter can aggregate mid-flight without extra bookkeeping.
        self._outcomes: List[SessionOutcome] = []

    async def _client(self, index: int, spec: RequestSpec) -> SessionOutcome:
        client = _LiveClient(
            self.serve,
            index,
            spec,
            self._rng,
            self._clock.wall_for,
            retry=self.retry,
            faults=self.faults(index) if self.faults is not None else None,
        )
        self._outcomes.append(client.outcome)
        self._active += 1
        self._peak = max(self._peak, self._active)
        try:
            return await client.run()
        finally:
            self._active -= 1
            self._done += 1

    def _progress_line(self, chunk_rate: float) -> str:
        chunks = sum(o.chunks for o in self._outcomes)
        underruns = sum(o.underruns for o in self._outcomes)
        return (
            f"loadgen: {self._active} open, "
            f"{self._done}/{len(self.trace)} done, "
            f"{chunks} chunks ({chunk_rate:.0f}/s), "
            f"{underruns} underruns"
        )

    async def _report_loop(self) -> None:
        assert self.progress is not None
        loop = asyncio.get_running_loop()
        last_chunks = 0
        last_wall = loop.time()
        while True:
            await asyncio.sleep(self.serve.progress_interval)
            now = loop.time()
            chunks = sum(o.chunks for o in self._outcomes)
            rate = (chunks - last_chunks) / max(now - last_wall, 1e-9)
            self.progress(self._progress_line(rate))
            last_chunks, last_wall = chunks, now

    async def run(self) -> LoadReport:
        """Dispatch every arrival at its compressed wall time; gather
        all session outcomes (the report preserves trace order)."""
        loop = asyncio.get_running_loop()
        if not len(self.trace):
            return LoadReport()
        reporter: Optional[asyncio.Task] = None
        if self.progress is not None:
            reporter = loop.create_task(
                self._report_loop(), name="loadgen.progress"
            )
        try:
            # Wall origin such that the first arrival fires immediately;
            # the gateway re-anchors on that first frame anyway.
            self._clock.anchor(self.trace[0].time, loop.time())
            tasks: List[asyncio.Task] = []
            for index, spec in enumerate(self.trace):
                delay = self._clock.wall_for(spec.time) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(
                    loop.create_task(
                        self._client(index, spec), name=f"loadgen.{index}"
                    )
                )
            sessions = list(await asyncio.gather(*tasks))
        finally:
            if reporter is not None:
                reporter.cancel()
                try:
                    await reporter
                except asyncio.CancelledError:
                    pass
        if self.progress is not None:
            self.progress(self._progress_line(0.0))
        return LoadReport(sessions=sessions, peak_concurrency=self._peak)
