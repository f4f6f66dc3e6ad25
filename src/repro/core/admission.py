"""Admission control: least-loaded assignment with a DRM fallback.

Section 3.2: "The request assignment algorithm assigns each newly
arrived request to the server which has a copy of the requested video
and has the fewest current requests.  A very limited amount of request
migration is attempted if all servers which hold a copy of the
requested video are full.  If this fails, then the request is not
accepted."
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.request import Request
from repro.cluster.server import DataServer, least_loaded
from repro.core.migration import (
    MigrationPolicy,
    execute_chain,
    find_migration_chain,
)
from repro.core.transmission import TransmissionManager
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.placement.base import PlacementMap


class AdmissionOutcome(enum.Enum):
    """Result of one admission decision."""

    ACCEPTED = "accepted"
    ACCEPTED_WITH_MIGRATION = "accepted_with_migration"
    #: Admitted by the prefix-cache tier as a *shared* session chained
    #: onto a live stream (:mod:`repro.prefix`) — no server slot used.
    ACCEPTED_CHAINED = "accepted_chained"
    REJECTED = "rejected"
    REJECTED_NO_REPLICA = "rejected_no_replica"

    @property
    def accepted(self) -> bool:
        return self in _ACCEPTED


_ACCEPTED = frozenset({
    AdmissionOutcome.ACCEPTED,
    AdmissionOutcome.ACCEPTED_WITH_MIGRATION,
    AdmissionOutcome.ACCEPTED_CHAINED,
})


class AdmissionController:
    """Decides and executes admission for each arrival.

    The admission test is the paper's: a server takes a stream while
    the sum of view bandwidths fits its link
    (:meth:`DataServer.has_slot`).

    Args:
        servers: cluster nodes keyed by id.
        managers: one :class:`TransmissionManager` per server id.
        placement: the static replica map.
        migration_policy: DRM configuration.
        metrics: run counters.
        tracer: optional obs tracer for saturation/DRM-search records.
    """

    def __init__(
        self,
        servers: Dict[int, DataServer],
        managers: Dict[int, TransmissionManager],
        placement: PlacementMap,
        migration_policy: MigrationPolicy,
        metrics: SimulationMetrics,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.servers = servers
        self.managers = managers
        self.placement = placement
        self.migration_policy = migration_policy
        self.metrics = metrics
        self.tracer = tracer

    # ------------------------------------------------------------------
    def submit(
        self, request: Request, now: float, retry: bool = False
    ) -> AdmissionOutcome:
        """Run the full admission pipeline for *request*.

        Args:
            request: the (possibly resubmitted) stream request.
            now: current simulation time.
            retry: True when this is a retry-queue resubmission; each
                attempt still counts as an arrival (so the
                ``accepted + rejected == arrivals`` identity holds per
                attempt) but an admitted retry is additionally counted
                as a backoff success.
        """
        self.metrics.record_arrival()
        outcome = self._decide(request, now)
        if retry and outcome.accepted:
            self.metrics.record_retry_success()
        return outcome

    def _decide(self, request: Request, now: float) -> AdmissionOutcome:
        """Three stages, each admitting or rejecting with its reason:
        least-loaded holder with a slot (:func:`least_loaded`, one slot
        test per holder) → no live holder (``no_replica``; the live list
        is built only for a refused arrival) → DRM chain."""
        video_id = request.video.video_id
        servers = self.servers
        holder_ids = self.placement.holders(video_id)
        target = least_loaded(servers, holder_ids, request.view_bandwidth)
        if target is not None:
            self.managers[target.server_id].admit(request, now)
            self.metrics.record_accept()
            return AdmissionOutcome.ACCEPTED

        live_ids = [
            sid for sid in holder_ids
            if (server := servers.get(sid)) is not None and server.up
        ]
        if not live_ids:
            request.mark_rejected("no_replica")
            self.metrics.record_reject(no_replica=True)
            return AdmissionOutcome.REJECTED_NO_REPLICA

        tracer = self.tracer
        if tracer is not None:
            # Every replica holder is full: the saturation event the
            # DRM fallback (and capacity planning) cares about.
            tracer.emit(
                TraceKind.SERVER_SATURATE, now,
                servers=live_ids, video=video_id,
            )
        if not self.migration_policy.enabled:
            request.mark_rejected("holders_full")
            self.metrics.record_reject(holders=live_ids)
            return AdmissionOutcome.REJECTED

        self.metrics.record_migration_attempt()
        chain = find_migration_chain(
            video_id, servers, self.placement, self.migration_policy
        )
        if chain is None:
            if tracer is not None:
                tracer.emit(TraceKind.DRM_FAIL, now, video=video_id)
            request.mark_rejected("chain_exhausted")
            self.metrics.record_reject(holders=live_ids)
            return AdmissionOutcome.REJECTED
        if tracer is not None:
            tracer.emit(
                TraceKind.DRM_CHAIN, now, video=video_id, length=len(chain),
                path=[(step.source_id, step.target_id) for step in chain],
            )
        execute_chain(chain, self.managers, now, tracer=tracer)
        freed = servers[chain[-1].source_id]
        if not freed.has_slot_for(request):
            raise RuntimeError(
                f"migration chain did not free a slot on server "
                f"{freed.server_id} for request {request.request_id}"
            )
        self.managers[freed.server_id].admit(request, now)
        self.metrics.record_accept()
        self.metrics.record_migration(len(chain))
        return AdmissionOutcome.ACCEPTED_WITH_MIGRATION
