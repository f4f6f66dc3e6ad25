"""Node failure handling via DRM (Section 3.1's fault-tolerance remark).

"Dynamic request migration can also be used to engineer a limited
degree of fault tolerance into the server since the ability to
dynamically switch servers for a single stream can help deal with node
server failures."

When a server fails, every stream it was serving tries to move to
another replica holder (direct move first, then a bounded DRM chain to
make room).  Streams with no reachable slot are dropped.  Hop limits do
not apply to failover moves — losing the stream is strictly worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.request import EPS_MB, Request
from repro.cluster.server import DataServer, least_loaded
from repro.workload.catalog import Video
from repro.core.migration import (
    RESCUE_POLICY,
    execute_chain,
    find_migration_chain,
)
from repro.core.transmission import TransmissionManager
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.placement.base import PlacementMap
from repro.sim.engine import Engine


@dataclass
class FailoverReport:
    """Outcome of one server failure."""

    server_id: int
    time: float
    relocated: List[int] = field(default_factory=list)  #: request ids saved
    dropped: List[int] = field(default_factory=list)    #: request ids lost

    @property
    def survival_ratio(self) -> float:
        total = len(self.relocated) + len(self.dropped)
        return len(self.relocated) / total if total else 1.0


class FailoverManager:
    """Fail and restore servers, migrating orphaned streams.

    Args:
        engine: simulation engine (for the clock).
        servers: cluster nodes by id.
        managers: transmission managers by server id.
        placement: the replica map (holdings survive a failure — the
            disk is intact, the node is just down).
        metrics: run counters (dropped streams are recorded).
        on_drop: the controller's drop-notification list, shared by
            reference like *servers*/*managers* and kept as
            :attr:`drop_handlers`; each stream lost mid-flight is
            published to it once marked and counted.
        tracer: optional obs tracer for fail/recover/drop records.
    """

    def __init__(
        self,
        engine: Engine,
        servers: Dict[int, DataServer],
        managers: Dict[int, TransmissionManager],
        placement: PlacementMap,
        metrics: SimulationMetrics,
        on_drop: List[Callable[[Request], None]],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.servers = servers
        self.managers = managers
        self.placement = placement
        self.metrics = metrics
        #: Not ``on_drop``: the controller would subscribe a list of
        #: handlers as a drop handler.
        self.drop_handlers = on_drop
        self.tracer = tracer
        self.reports: List[FailoverReport] = []
        #: Called with the :class:`FailoverReport` of each *actual*
        #: server failure (idempotent re-fails do not fire).  The live
        #: chaos plane registers here to mirror a virtual crash into
        #: the serving gateway (killing the server's asyncio task).
        self.on_fail: List[Callable[[FailoverReport], None]] = []
        #: Called with the server id of each *actual* restore — the
        #: live analogue warms the server back up.
        self.on_restore: List[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    def fail_server(self, server_id: int) -> FailoverReport:
        """Take *server_id* down now and relocate its streams.

        Idempotent: failing an already-down server (correlated fault
        plans can draw overlapping outages) is a no-op that emits no
        trace and appends no report.
        """
        now = self.engine.now
        server = self.servers[server_id]
        if not server.up:
            return FailoverReport(server_id=server_id, time=now)
        manager = self.managers[server_id]
        # Account for everything transmitted up to the failure instant.
        manager.flush(now)
        orphans = server.fail()
        manager.deactivate()
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_FAIL, now,
                server=server_id, orphans=len(orphans),
            )
        report = FailoverReport(server_id=server_id, time=now)
        self._rehome(orphans, report, now)
        self.reports.append(report)
        for hook in self.on_fail:
            hook(report)
        return report

    def restore_server(self, server_id: int) -> None:
        """Bring a failed server back into admission rotation.

        Idempotent: restoring an up server is a no-op (no duplicate
        ``server.recover`` trace, no spurious reallocation).
        """
        server = self.servers[server_id]
        if server.up:
            return
        server.restore()
        self.managers[server_id].reallocate(self.engine.now)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_RECOVER, self.engine.now, server=server_id
            )
        for hook in self.on_restore:
            hook(server_id)

    # ------------------------------------------------------------------
    # Partial degradation (beyond binary fail/restore)
    # ------------------------------------------------------------------
    def degrade_server(self, server_id: int, factor: float) -> FailoverReport:
        """Scale *server_id*'s outbound link to ``factor * nominal``.

        Streams whose minimum-flow floor no longer fits are shed
        newest-first (they have the most data left to lose the least
        progress) and relocated like failure orphans; the survivors are
        then reallocated inside the reduced link.  A no-op on a down
        server (the link does not matter while the node is out).
        """
        now = self.engine.now
        server = self.servers[server_id]
        report = FailoverReport(server_id=server_id, time=now)
        if not server.up:
            return report
        manager = self.managers[server_id]
        manager.flush(now)
        server.set_link_scale(factor)
        victims: List[Request] = []
        active = list(server.iter_active())
        while server.reserved_bandwidth > server.bandwidth + EPS_MB and active:
            victim = active.pop()  # newest admission first
            server.detach(victim)
            victims.append(victim)
        self._rehome(victims, report, now, exclude=server_id)
        manager.reallocate(now)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_DEGRADE, now,
                server=server_id, factor=factor, shed=len(victims),
            )
        self.reports.append(report)
        return report

    def restore_link(self, server_id: int) -> None:
        """Return a degraded server's link to nominal capacity."""
        now = self.engine.now
        server = self.servers[server_id]
        if not server.degraded:
            return
        server.set_link_scale(1.0)
        if server.up:
            self.managers[server_id].reallocate(now)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_LINK_RESTORE, now, server=server_id
            )

    def lose_replica(self, server_id: int, video: Video) -> FailoverReport:
        """Destroy *server_id*'s on-disk replica of *video*.

        Streams of that video currently served there are orphaned and
        relocated to the surviving holders (or dropped); the placement
        map forgets the holder so admission stops routing here.  A no-op
        when the server holds no such replica.
        """
        now = self.engine.now
        server = self.servers[server_id]
        report = FailoverReport(server_id=server_id, time=now)
        if not server.holds(video.video_id):
            return report
        manager = self.managers[server_id]
        if server.up:
            manager.flush(now)
        orphans = [
            r for r in server.iter_active()
            if r.video.video_id == video.video_id
        ]
        for request in orphans:
            server.detach(request)
        server.drop_replica(video)
        self.placement.remove_holder(video.video_id, server_id)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_REPLICA_LOSS, now,
                server=server_id, video=video.video_id, orphans=len(orphans),
            )
        self._rehome(orphans, report, now)
        if server.up:
            manager.reallocate(now)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    def _rehome(
        self,
        requests: List[Request],
        report: FailoverReport,
        now: float,
        exclude: Optional[int] = None,
    ) -> None:
        """Relocate each detached stream or drop it, filling *report*."""
        for request in requests:
            request.rate = 0.0
            if self._relocate(request, now, exclude=exclude):
                report.relocated.append(request.request_id)
            else:
                self._drop(request, report.server_id, now)
                report.dropped.append(request.request_id)

    def _drop(self, request: Request, server_id: int, now: float) -> None:
        """Mark an unrescuable orphan dropped and publish the drop."""
        request.mark_dropped(now)
        self.metrics.record_drop()
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_DROP, now,
                request=request.request_id, server=server_id,
            )
        for notify in self.drop_handlers:
            notify(request)

    def _relocate(
        self, request: Request, now: float, exclude: Optional[int] = None
    ) -> bool:
        """Find the orphan a new home: direct slot, else a DRM chain."""
        video_id = request.video.video_id
        target = least_loaded(
            self.servers, self.placement.holders(video_id),
            request.view_bandwidth, exclude=exclude,
        )
        if target is not None:
            self._move(request, target.server_id, now)
            return True
        chain = find_migration_chain(
            video_id, self.servers, self.placement, RESCUE_POLICY
        )
        if chain is not None:
            execute_chain(
                chain, self.managers, now,
                tracer=self.tracer, cause="failover",
            )
            freed = self.servers[chain[-1].source_id]
            if not freed.has_slot_for(request):
                raise RuntimeError(
                    f"migration chain did not free a slot on server "
                    f"{freed.server_id} for request {request.request_id}"
                )
            self._move(request, freed.server_id, now)
            self.metrics.record_migration(len(chain))
            return True
        return False

    def _move(self, request: Request, target_id: int, now: float) -> None:
        """Attach an already-detached orphan to *target_id*."""
        request.hops += 1
        self.metrics.record_relocation()
        source_id = request.server_id
        self.managers[target_id].migrate_in(request, now)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_MIGRATE, now,
                request=request.request_id,
                source=source_id, target=target_id, cause="failover",
            )
