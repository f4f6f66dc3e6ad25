"""Per-server transmission machinery: driving an allocator on the engine.

Between events every stream's rate is constant, so each server needs
exactly one pending engine event: the earliest of its streams' next
boundaries.  Boundaries are (Section 3.3's EFTF trigger list):

* **transmission finish** — all data sent; the stream leaves the server
  and frees its minimum-flow floor;
* **buffer full** — a boosted stream's client runs out of headroom; its
  surplus is redistributed (the stream drops back to ``b_view``);
* ("buffer empty" is in the paper's trigger list but is unreachable for
  minimum-flow algorithms with immediate playback — while unfinished a
  stream receives at least its drain rate; we assert rather than handle
  it.)

External triggers (arrival, migration in/out, failure, VCR pause and
resume) call :meth:`TransmissionManager.reallocate` directly; the
pending event is kept if the boundary did not move, else cancelled
lazily and rescheduled.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.analysis.metrics import MetricsSink
from repro.cluster.request import Request
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
            ``sched.realloc`` records (read off ``server.walls`` and
            ``server.moved`` as the allocator pass left them, never the
            whole server).
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

    def deactivate(self) -> None:
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
        ones that completed, moves the spare, keeps the floor order and
        returns the server's next boundary.  N streams hitting their
        boundaries at one timestamp are handled by one event — there is
        never more than one boundary event per server on the agenda
        (pinned by tests).  Most triggers leave the boundary (clamped to
        *now*) on the pending event's exact time; that event is then
        kept, ``seq`` and all, and only a moved boundary replaces it.

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
        moved, boundary, finished = self.allocator.allocate_into(
            server, server.moved, now
        )
        if moved > 0.0:
            self.metrics.record_bytes(server.server_id, moved)
        tracer = self.tracer
        if tracer is not None:
            walls = server.walls
            if len(walls) > 1:  # simultaneous walls go out in active-list order
                position = {rid: i for i, rid in enumerate(server.active)}
                walls.sort(key=lambda r: position[r.request_id])
            for r in walls:
                tracer.emit(
                    TraceKind.STREAM_BUFFER_FULL, now,
                    request=r.request_id, server=server.server_id,
                )
            boosted = sum(1 for r in server.moved
                          if r.rate > r.view_bandwidth + EPS_RATE)
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
            tracer.emit(
                TraceKind.SCHED_REALLOC, now,
                server=server.server_id, allocator=self.allocator.name,
                streams=len(server.active), boosted=boosted,
            )
        if boundary < now:
            boundary = now
        event = self._event
        if event is not None:
            if event.time == boundary:
                return  # the boundary did not move
            event.cancel()
            self._event = None
        if boundary < math.inf:
            self._event = self.engine.schedule_at(
                boundary, self._on_boundary, kind=self._boundary_kind
            )

    def _on_boundary(self) -> None:
        """Finish, buffer-full or pause-end: the pass sees which."""
        self._event = None
        self.reallocate(self.engine.now)

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
            self.metrics.record_bytes(self.server.server_id, total)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TransmissionManager srv={self.server.server_id} "
            f"allocator={self.allocator.name} reallocs={self.reallocations}>"
        )
