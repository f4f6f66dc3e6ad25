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

from typing import Callable, Dict, List, Optional

from repro.analysis.metrics import SimulationMetrics
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


class DistributionController:
    """Admission front-end plus per-run bookkeeping.

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
        metrics: Optional[SimulationMetrics] = None,
        admission_mode: str = "minflow",
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.catalog = catalog
        self.placement = placement
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
                on_finish=self._on_finish, tracer=tracer,
            )
            for s in servers
        }
        #: The shared allocator instance — kept so elastic scale-out can
        #: wire a mid-run joiner's TransmissionManager identically.
        self._allocator = allocator
        park_seconds = getattr(allocator, "park_seconds", 120.0)
        self.admission = AdmissionController(
            self.servers,
            self.managers,
            placement,
            migration_policy,
            self.metrics,
            mode=admission_mode,
            park_seconds=park_seconds,
            tracer=tracer,
        )
        registry = self.metrics.registry
        if registry is not None:
            registry.gauge("streams.active", supplier=lambda: self.active_count)
        #: Completed requests kept for post-run analysis (finished or
        #: dropped); rejected requests are only counted.
        self.completed: List[Request] = []
        #: Optional prefix-cache / stream-sharing tier
        #: (:class:`repro.prefix.PrefixTier`).  When set, fresh arrivals
        #: are offered to the tier before normal admission: a chained
        #: admission short-circuits the pipeline, a patch admission
        #: falls through with a truncated transfer.
        self.prefix_tier = None
        #: Per-admission observers ``(outcome, request)`` — used by the
        #: dynamic replicator, tests and trace tooling.  Append freely;
        #: hooks run in order after each decision.
        self.decision_hooks: List[
            Callable[[AdmissionOutcome, Request], None]
        ] = []

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
            on_finish=self._on_finish, tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    def submit(self, video_id: int) -> AdmissionOutcome:
        """Handle one arriving request for *video_id* at the current time."""
        now = self.engine.now
        video = self.catalog[video_id]
        request = Request(
            video=video,
            client=self._profile_for(video_id),
            arrival_time=now,
        )
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_ARRIVE, now,
                request=request.request_id, video=video_id,
            )
        if self.prefix_tier is not None:
            chained = self.prefix_tier.intercept(request, now)
            if chained is not None:
                self._after_decision(chained, request, now)
                return chained
        outcome = self.admission.submit(request, now)
        self._after_decision(outcome, request, now)
        return outcome

    def resubmit(self, request: Request) -> AdmissionOutcome:
        """Re-run admission for a retry-queue resubmission.

        The caller (:class:`repro.faults.retry.RetryQueue`) has already
        reset the request via :meth:`Request.prepare_retry`.  Every
        attempt counts as an arrival, is traced like one, and runs the
        decision hooks — so a re-rejection flows straight back into the
        retry queue's own hook.
        """
        now = self.engine.now
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_ARRIVE, now,
                request=request.request_id, video=request.video.video_id,
            )
        outcome = self.admission.submit(request, now, retry=True)
        self._after_decision(outcome, request, now)
        return outcome

    def _after_decision(
        self, outcome: AdmissionOutcome, request: Request, now: float
    ) -> None:
        """Shared post-admission tracing + decision hooks."""
        if self.tracer is not None:
            if outcome.accepted:
                self.tracer.emit(
                    TraceKind.REQUEST_ADMIT, now,
                    request=request.request_id,
                    video=request.video.video_id,
                    server=request.server_id,
                    migrated=(
                        outcome is AdmissionOutcome.ACCEPTED_WITH_MIGRATION
                    ),
                )
            else:
                self.tracer.emit(
                    TraceKind.REQUEST_REJECT, now,
                    request=request.request_id,
                    video=request.video.video_id,
                    reason=(
                        "no_replica"
                        if outcome is AdmissionOutcome.REJECTED_NO_REPLICA
                        else "saturated"
                    ),
                )
        for hook in self.decision_hooks:
            hook(outcome, request)

    def _on_finish(self, request: Request) -> None:
        self.metrics.record_finish()
        self.completed.append(request)
        now = self.engine.now
        registry = self.metrics.registry
        if registry is not None:
            # Buffer occupancy at transmission finish, in seconds of
            # playback banked — the quantity client staging exists to
            # maximise (Section 3.3's workahead).
            registry.histogram("client.buffer_at_finish_seconds").observe(
                request.buffer_occupancy(now) / request.view_bandwidth
            )
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_FINISH, now,
                request=request.request_id, server=request.server_id,
            )
        if self.prefix_tier is not None:
            self.prefix_tier.on_stream_finish(request, now)

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
        * per-server minimum-flow floors fit the links (minimum-flow
          allocators only — overbooked intermittent servers may carry
          more than their SVBR by design);
        * active streams are in state ACTIVE.
        """
        for server in self.servers.values():
            minimum_flow = self.managers[server.server_id].allocator.minimum_flow
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
            if minimum_flow and floor > server.bandwidth + 1e-6:
                raise AssertionError(
                    f"server {server.server_id} over-committed: "
                    f"{floor} > {server.bandwidth}"
                )
