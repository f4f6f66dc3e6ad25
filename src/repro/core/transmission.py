"""Per-server transmission machinery: driving an allocator on the engine.

Between events every stream's rate is constant, so each server needs
exactly one pending engine event: the earliest of its streams' next
boundaries.  Boundaries are (Section 3.3's EFTF trigger list):

* **transmission finish** — all data sent; the stream leaves the server
  and frees its minimum-flow floor;
* **buffer full** — a boosted stream's client runs out of headroom; its
  surplus is redistributed (the stream drops back to ``b_view``);
* **switch-gap end** — a migrated stream's pause expires and it rejoins
  the minimum-flow floor;
* ("buffer empty" is in the paper's trigger list but is unreachable for
  minimum-flow algorithms with immediate playback — while unfinished a
  stream receives at least its drain rate; we assert rather than handle
  it.)

External triggers (arrival, migration in/out, failure, VCR pause and
resume) call :meth:`TransmissionManager.reallocate` directly; the
pending event is cancelled lazily and rescheduled.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.analysis.metrics import MetricsSink
from repro.cluster.request import EPS_MB, Request
from repro.cluster.server import DataServer
from repro.core.schedulers import EPS_RATE, BandwidthAllocator
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.events import Event


class TransmissionManager:
    """Owns one server's bandwidth schedule.

    Args:
        engine: the simulation engine.
        server: the managed :class:`DataServer`.
        allocator: spare-bandwidth policy (EFTF in the paper).
        metrics: sink for transfer accounting.
        on_finish: callback invoked when a stream completes transmission
            (after it has been detached from the server).
        tracer: optional obs tracer for ``stream.buffer_full`` and
            ``sched.realloc`` records (no stream is visited for it).
    """

    def __init__(
        self,
        engine: Engine,
        server: DataServer,
        allocator: BandwidthAllocator,
        metrics: MetricsSink,
        on_finish: Optional[Callable[[Request], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.server = server
        self.allocator = allocator
        self.metrics = metrics
        self.on_finish = on_finish
        self.tracer = tracer
        self._event: Optional[Event] = None
        #: Streams the last pass left above ``b_view`` — the only ones
        #: that can hit a buffer wall before the next pass.
        self._boosted: List[Request] = []
        #: True while finish callbacks run (re-entrancy guard).
        self._finishing = False
        self.reallocations = 0
        #: Trace tag for boundary events, built once, not per event.
        self._boundary_kind = f"tx-boundary:srv{server.server_id}"

    # ------------------------------------------------------------------
    # External triggers
    # ------------------------------------------------------------------
    def admit(self, request: Request, now: float) -> None:
        """Attach a newly accepted stream and rebalance."""
        request.last_sync = now
        self.server.attach(request)
        self.reallocate(now)

    def migrate_in(self, request: Request, now: float) -> None:
        """Receive a migrated stream (its pause window, if any, was set
        by the migration executor)."""
        self.server.attach(request)
        self.reallocate(now)

    def migrate_out(self, request: Request, now: float) -> None:
        """Release a stream that is moving to another server.

        Syncs the stream first so its transfer so far is attributed to
        this server, then rebalances the remainder.
        """
        request.sync(now, self.metrics)
        request.rate = 0.0
        self.server.detach(request)
        self.reallocate(now)

    def deactivate(self, now: float) -> None:
        """Stop scheduling (server failed).  Streams must already have
        been detached via :meth:`DataServer.fail`; pending work is
        synced by the failure handler before this call."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    # ------------------------------------------------------------------
    # Core cycle
    # ------------------------------------------------------------------
    def reallocate(self, now: float, changed: Optional[Request] = None) -> None:
        """The whole cycle, for every trigger: integrate, finish,
        reassign rates, schedule the next boundary.

        *changed* is a stream whose playback the caller just paused or
        resumed (VCR): it leaves the floor order, so the pass re-reads
        it.  Attaching a stream needs no such hand-in.

        One :meth:`BandwidthAllocator.allocate_into` pass visits the
        streams off the floor order (``server.moved``), splits off the
        ones that completed, moves the spare and keeps the floor order,
        whose head is the boundary of every stream playing at
        ``b_view``; only the irregular few (boosted, switch-gap,
        VCR-paused) go through :meth:`_next_boundary`.  N streams
        hitting their boundaries at one timestamp are handled by one
        event — there is never more than one boundary event per server
        on the agenda (pinned by tests).

        Finished streams are detached and reported in active-list order
        once the others hold their new rates.  Finish subscribers may
        schedule, never reallocate synchronously: re-entering this
        manager from ``on_finish`` raises.

        An external trigger finishes a stream too if it lands within
        ``EPS_MB / rate`` (0.3 µs at 3 Mb/s) before that stream's own
        boundary.  Arrival, fault and VCR times are continuous draws, so
        a benchmark-length run sees that about once in 10⁵; the stream
        then ends that much earlier, short by the ``<= EPS_MB`` the
        boundary itself tolerates, and its callbacks run inside the
        trigger — still a valid schedule.
        """
        server = self.server
        if self._finishing:
            raise RuntimeError(
                f"server {server.server_id}: reallocate re-entered from a "
                f"finish callback (subscribers may schedule, not reallocate)"
            )
        if changed is not None:
            server.lift(changed)
        self.reallocations += 1
        moved, boundary, irregular, finished = self.allocator.allocate_into(
            server, server.moved, now
        )
        if moved > 0.0:
            self.metrics.record_bytes(server.server_id, moved, now)
        tracer = self.tracer
        if tracer is not None and self._boosted:
            self._trace_full_buffers(now)
        self._boosted = [
            r for r in irregular if r.rate > r.view_bandwidth + EPS_RATE
        ]
        if finished:
            self._finishing = True
            try:
                for r in finished:
                    server.detach(r)
                    r.mark_finished(now)
                    if self.on_finish is not None:
                        self.on_finish(r)
            finally:
                self._finishing = False
        if tracer is not None:
            # Every stream off its b_view floor is irregular, so the
            # boosted ones are counted there, not over the whole list.
            tracer.emit(
                TraceKind.SCHED_REALLOC, now,
                server=server.server_id, allocator=self.allocator.name,
                streams=len(server.active),
                boosted=sum(r.rate > r.view_bandwidth for r in irregular),
            )
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if irregular:
            boundary = min(boundary, self._next_boundary(now, irregular))
        if boundary < math.inf:
            self._event = self.engine.schedule_at(
                max(boundary, now),
                self._on_boundary,
                kind=self._boundary_kind,
            )

    def _next_boundary(self, now: float, streams) -> float:
        """Earliest time any of *streams*' linear evolution hits a wall
        (``inf`` if none does) — the general rule, for the streams the
        allocator pass could not reduce to ``remaining / b_view``.

        Inlines ``Request.buffer_occupancy`` (kept equivalent by tests).
        """
        best: float = math.inf
        for r in streams:
            if now < r.paused_until:
                t = r.paused_until
            else:
                rate = r.rate
                vb = r.view_bandwidth
                sent = r.bytes_sent
                # A VCR-paused viewer consumes nothing: the buffer only
                # ever fills, never drains.
                playing = now < r.playback_pause_time
                drain = vb if playing else 0.0
                if rate < drain - EPS_RATE:
                    # Minimum flow: a live, playing stream always has
                    # rate >= b_view.
                    raise RuntimeError(
                        f"playing stream {r.request_id} at {rate} Mb/s, "
                        f"below its view bandwidth {vb}, on server "
                        f"{self.server.server_id}"
                    )
                if rate <= EPS_RATE:
                    # VCR-paused with a full buffer: legitimately idle
                    # until the viewer resumes.
                    t = math.inf
                else:
                    t = now + (r.size - sent) / rate
                    surplus = rate - drain
                    if surplus > EPS_RATE:
                        capacity = r.client.buffer_capacity
                        if capacity < math.inf:
                            played_until = (
                                now if playing else r.playback_pause_time
                            )
                            headroom = capacity - (
                                sent - (played_until - r.playback_start) * vb
                            )
                            if headroom < 0.0:
                                headroom = 0.0
                            t_full = now + headroom / surplus
                            if t_full < t:
                                t = t_full
            if t < best:
                best = t
        return best

    def _on_boundary(self) -> None:
        """Finish, buffer-full or pause-end: the pass sees which."""
        self._event = None
        self.reallocate(self.engine.now)

    def _trace_full_buffers(self, now: float) -> None:
        """Emit ``stream.buffer_full`` for the streams the previous pass
        left boosted whose clients just ran out of headroom — the wall
        that pass scheduled this boundary for.  Only those few are
        re-checked (integrated by now); none is visited just to trace."""
        active = self.server.active
        full = [
            r for r in self._boosted
            if now < r.playback_pause_time  # a paused viewer cannot fill
            and r.size - r.bytes_sent > EPS_MB  # finishing, not filling
            and r.request_id in active  # not migrated or shed since
            and r.client.buffer_capacity - (
                r.bytes_sent - (now - r.playback_start) * r.view_bandwidth
            ) <= EPS_MB
        ]
        if len(full) > 1:  # simultaneous walls go out in active-list order
            ids = list(active)
            full.sort(key=lambda r: ids.index(r.request_id))
        for r in full:
            self.tracer.emit(
                TraceKind.STREAM_BUFFER_FULL, now,
                request=r.request_id, server=self.server.server_id,
            )

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def flush(self, now: float) -> None:
        """Integrate all streams to *now* without reallocating (warm-up,
        pre-fault and end-of-run accounting; floor streams included);
        the transfer is one metrics call."""
        total = 0.0
        for r in self.server.iter_active():
            total += r.sync(now)
        if total > 0.0:
            self.metrics.record_bytes(self.server.server_id, total, now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TransmissionManager srv={self.server.server_id} "
            f"allocator={self.allocator.name} reallocs={self.reallocations}>"
        )
