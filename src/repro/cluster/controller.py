"""The distribution controller: front door of the cluster (Section 2).

"A central distribution controller (DC) governs the operation of the
data sources within the cluster.  When a request to view a particular
video arrives in the system, the distribution controller must decide
whether or not to accept the incoming request based on current resource
allocation."

This class wires together the servers, their transmission managers, the
admission controller and the metrics for one simulation run, and is the
object workload generators talk to.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.membership import ClusterMembership
from repro.cluster.request import Request, RequestState
from repro.cluster.server import DataServer
from repro.core.admission import AdmissionController, AdmissionOutcome
from repro.core.migration import MigrationPolicy
from repro.core.schedulers import BandwidthAllocator
from repro.core.transmission import TransmissionManager
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.placement.base import PlacementMap
from repro.sim.engine import Engine
from repro.workload.catalog import VideoCatalog

#: What ``submit`` / ``resubmit`` return: the request and its decision.
Decided = Tuple[Request, AdmissionOutcome]


class DistributionController:
    """Admission front-end, per-run bookkeeping, and the one publisher
    of request-lifecycle notifications (docs/ARCHITECTURE.md, "Request
    lifecycle").  :meth:`subscribe` fills four attributes:

    * :attr:`intercept` — the single pre-admission stage, ``(request,
      now) -> outcome | None``, offered every fresh arrival (never a
      retry); a non-None outcome is the decision;
    * :attr:`on_decision` — list of ``(outcome, request)``, called after
      every admission decision, first attempts and retries alike;
    * :attr:`on_finish` — list of ``(request, now)``, called when a
      server-backed stream's transmission completes;
    * :attr:`on_drop` — list of ``(request)``, called when a live stream
      is lost mid-flight; the failover manager is handed this very list
      and publishes into it.

    Args:
        engine: the simulation engine.
        servers: cluster nodes (holdings already populated by placement).
        catalog: the video catalog.
        placement: the static replica map.
        client_profile: capabilities assumed for every client; pass a
            callable ``(video_id) -> ClientProfile`` for heterogeneous
            client populations.
        allocator: spare-bandwidth policy shared by all servers.
        migration_policy: DRM configuration.
        membership: the cluster's lifecycle ledger, carried for the
            serve layer (its gateway reconciles tasks on the epoch).
        metrics: optional pre-built metrics object (a fresh one is
            created by default).
        tracer: optional :class:`repro.obs.tracer.Tracer`; when given,
            request-lifecycle, server and scheduler records are emitted
            from every layer (zero overhead when None).
    """

    def __init__(
        self,
        engine: Engine,
        servers: List[DataServer],
        catalog: VideoCatalog,
        placement: PlacementMap,
        client_profile,
        allocator: BandwidthAllocator,
        migration_policy: MigrationPolicy,
        membership: ClusterMembership,
        metrics: Optional[SimulationMetrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.catalog = catalog
        self.placement = placement
        self.membership = membership
        self.metrics = metrics if metrics is not None else SimulationMetrics()
        self.tracer = tracer
        if callable(client_profile):
            self._profile_for = client_profile
        else:
            self._profile_for = lambda video_id: client_profile

        self.servers: Dict[int, DataServer] = {
            s.server_id: s for s in servers
        }
        self.managers: Dict[int, TransmissionManager] = {
            s.server_id: TransmissionManager(
                engine, s, allocator, self.metrics,
                on_finish=self._stream_finished, tracer=tracer,
            )
            for s in servers
        }
        #: The shared allocator instance — kept so elastic scale-out can
        #: wire a mid-run joiner's TransmissionManager identically.
        self._allocator = allocator
        self.admission = AdmissionController(
            self.servers,
            self.managers,
            placement,
            migration_policy,
            self.metrics,
            tracer=tracer,
        )
        registry = self.metrics.registry
        registry.gauge("streams.active", supplier=lambda: self.active_count)
        # Buffer occupancy at transmission finish, in seconds of playback
        # banked — the quantity client staging exists to maximise
        # (Section 3.3's workahead).
        self._buffer_at_finish = registry.histogram(
            "client.buffer_at_finish_seconds"
        )
        self.intercept: Optional[Callable] = None
        self.on_decision: List[Callable] = []
        self.on_finish: List[Callable] = []
        self.on_drop: List[Callable] = []

    def subscribe(self, observer) -> None:
        """Register whichever of ``intercept`` / ``on_decision`` /
        ``on_finish`` / ``on_drop`` *observer* defines.

        Handlers are resolved once, here, so publishing stays a bare
        loop over bound methods in subscription order.  ``on_finish``
        handlers run inside a server's reallocation: they may schedule
        engine events, never admit, migrate or reallocate synchronously
        (:meth:`TransmissionManager.reallocate` raises if re-entered).
        """
        intercept = getattr(observer, "intercept", None)
        if intercept is not None:
            if self.intercept is not None:
                raise ValueError(
                    f"{type(observer).__name__}: the pre-admission stage "
                    f"already has a provider"
                )
            self.intercept = intercept
        for name in ("on_decision", "on_finish", "on_drop"):
            handler = getattr(observer, name, None)
            if handler is not None:
                getattr(self, name).append(handler)

    def add_server(self, server: DataServer) -> None:
        """Wire a mid-run joiner into the cluster (elastic scale-out).

        The controller's ``servers``/``managers`` dicts are shared *by
        reference* with the admission controller and any failover
        manager, so registering here makes the joiner visible to every
        layer at once.  The caller (the elastic scaler) is responsible
        for lifecycle gating via ``server.accepting``.
        """
        sid = server.server_id
        if sid in self.servers:
            raise ValueError(f"server {sid} already in the cluster")
        self.servers[sid] = server
        self.managers[sid] = TransmissionManager(
            self.engine, server, self._allocator, self.metrics,
            on_finish=self._stream_finished, tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    def submit(self, video_id: int) -> Decided:
        """Handle one arriving request for *video_id* at the current
        time; returns the request it became and the decision."""
        request = Request(
            video=self.catalog[video_id],
            client=self._profile_for(video_id),
            arrival_time=self.engine.now,
        )
        return self._decide(request, False)

    def resubmit(self, request: Request) -> Decided:
        """Re-run admission for a retry-queue resubmission.

        The caller (:class:`repro.faults.retry.RetryQueue`) has already
        reset the request via :meth:`Request.prepare_retry`.  Every
        attempt counts as an arrival, is traced like one and published
        to :attr:`on_decision` — so a re-rejection flows straight back
        into the retry queue — but skips the pre-admission stage.
        """
        return self._decide(request, True)

    def _decide(self, request: Request, retry: bool) -> Decided:
        """Trace the arrival, decide, trace and publish the decision."""
        now = self.engine.now
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                TraceKind.REQUEST_ARRIVE, now,
                request=request.request_id, video=request.video.video_id,
            )
        outcome = None
        if self.intercept is not None and not retry:
            outcome = self.intercept(request, now)
        if outcome is None:
            outcome = self.admission.submit(request, now, retry)
        if tracer is not None:
            if outcome.accepted:
                tracer.emit(
                    TraceKind.REQUEST_ADMIT, now,
                    request=request.request_id,
                    video=request.video.video_id,
                    server=request.server_id,
                    migrated=(
                        outcome is AdmissionOutcome.ACCEPTED_WITH_MIGRATION
                    ),
                )
            else:
                tracer.emit(
                    TraceKind.REQUEST_REJECT, now,
                    request=request.request_id,
                    video=request.video.video_id,
                    reason=request.reject_reason,
                )
        for notify in self.on_decision:
            notify(outcome, request)
        return request, outcome

    def _stream_finished(self, request: Request) -> None:
        """A transmission manager completed *request*'s transfer."""
        self.metrics.record_finish()
        now = self.engine.now
        self._buffer_at_finish.observe(
            request.buffer_occupancy(now) / request.view_bandwidth
        )
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_FINISH, now,
                request=request.request_id, server=request.server_id,
            )
        for notify in self.on_finish:
            notify(request, now)

    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Unfinished streams cluster-wide."""
        return sum(s.active_count for s in self.servers.values())

    def total_bandwidth(self) -> float:
        """Cluster egress capacity, Mb/s (failed servers included — a
        down node still counts against the utilization denominator)."""
        return sum(s.bandwidth for s in self.servers.values())

    def finalize(self, now: float) -> None:
        """Flush all in-flight transfer accounting at end of run and run
        the metrics consistency checks."""
        for manager in self.managers.values():
            manager.flush(now)
        self.metrics.sanity_check()

    def check_invariants(self) -> None:
        """Assert structural invariants (tests call this liberally).

        * every active stream's server holds its video;
        * per-server minimum-flow floors fit the links;
        * active streams are in state ACTIVE.
        """
        for server in self.servers.values():
            floor = 0.0
            for request in server.iter_active():
                if not server.holds(request.video.video_id):
                    raise AssertionError(
                        f"request {request.request_id} on server "
                        f"{server.server_id} without a replica"
                    )
                if request.state is not RequestState.ACTIVE:
                    raise AssertionError(
                        f"non-active request {request.request_id} attached"
                    )
                if request.server_id != server.server_id:
                    raise AssertionError(
                        f"request {request.request_id} server_id out of sync"
                    )
                floor += request.view_bandwidth
            if floor > server.bandwidth + 1e-6:
                raise AssertionError(
                    f"server {server.server_id} over-committed: "
                    f"{floor} > {server.bandwidth}"
                )
