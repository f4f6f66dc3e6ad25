"""Dynamic replication: the resource-intensive alternative to DRM.

Section 3.1 contrasts DRM with the heavier tradition the related work
pursues: "more resource intensive solutions perform dynamic replication
of the requested object on another server where resources can be made
available" (cf. Dan/Kienzle/Sitaram's dynamic segment replication [9]
and Chou/Golubchik/Lui [7]).  This module implements that alternative
so the two can be compared head-to-head (EXT-DR).

Model:

* Every **rejection** of a request for video ``v`` is a demand signal.
  Once ``v`` accumulates :data:`TRIGGER_REJECTIONS` of them, a new
  replica is commissioned on the least-loaded live server with disk
  space that does not already hold ``v``.
* The copy streams from **tertiary storage** (part of the paper's
  Figure 1 architecture) at :data:`COPY_BANDWIDTH` Mb/s, so it costs no
  data-server egress but takes ``size / COPY_BANDWIDTH`` seconds before
  the replica serves requests.
* If no candidate has disk space, the replicator **evicts** cold
  replicas on the least loaded: ones whose video has another copy
  elsewhere and no active stream on this server.
* At most ``max_concurrent_copies`` transfers run at once; a video with
  a copy already in flight is not replicated again.

De-replication on demand decay is intentionally rejection-driven too:
a video that stops being rejected simply stops gaining copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.cluster.request import Request
from repro.cluster.server import DataServer
from repro.core.admission import AdmissionOutcome
from repro.placement.base import PlacementMap
from repro.serialize import Config
from repro.sim.engine import Engine
from repro.workload.catalog import VideoCatalog

#: Tertiary-to-server transfer rate, Mb/s: a feature film in ~3 minutes.
COPY_BANDWIDTH = 100.0

#: Rejections of a video that commission a new replica.
TRIGGER_REJECTIONS = 3


@dataclass(frozen=True)
class ReplicationPolicy(Config):
    """Configuration of the dynamic replicator.

    Attributes:
        max_concurrent_copies: transfer parallelism bound.
    """

    max_concurrent_copies: int = 4

    def __post_init__(self) -> None:
        if self.max_concurrent_copies < 1:
            raise ValueError(
                f"max_concurrent_copies must be >= 1, "
                f"got {self.max_concurrent_copies}"
            )


class DynamicReplicator:
    """Rejection-driven replica management.

    Subscribe it to a :class:`DistributionController`'s decision
    notifications (:meth:`on_decision`), e.g.::

        replicator = DynamicReplicator(engine, servers, placement, catalog)
        controller.subscribe(replicator)
    """

    def __init__(
        self,
        engine: Engine,
        servers: Dict[int, DataServer],
        placement: PlacementMap,
        catalog: VideoCatalog,
        policy: Optional[ReplicationPolicy] = None,
    ) -> None:
        self.engine = engine
        self.servers = servers
        self.placement = placement
        self.catalog = catalog
        self.policy = policy or ReplicationPolicy()
        self.rejections_since_copy: Dict[int, int] = {}
        self.in_flight: Set[int] = set()   #: video ids being copied
        self.replications = 0
        self.evictions = 0
        self.failed_attempts = 0

    # ------------------------------------------------------------------
    def on_decision(self, outcome: AdmissionOutcome, request: Request) -> None:
        """Controller notification: every admission decision."""
        if outcome is not AdmissionOutcome.REJECTED:
            return
        vid = request.video.video_id
        count = self.rejections_since_copy.get(vid, 0) + 1
        self.rejections_since_copy[vid] = count
        if count >= TRIGGER_REJECTIONS:
            if self._start_copy(vid):
                self.rejections_since_copy[vid] = 0

    # ------------------------------------------------------------------
    def _start_copy(self, video_id: int) -> bool:
        """Commission a replica of *video_id* if the policy allows."""
        if video_id in self.in_flight:
            return False
        if len(self.in_flight) >= self.policy.max_concurrent_copies:
            return False
        video = self.catalog[video_id]
        target = self._choose_target(video_id)
        if target is None:
            self.failed_attempts += 1
            return False
        if not target.can_store(video):
            self._evict_for(target, video_id, video.size)
        if not target.can_store(video):
            self.failed_attempts += 1
            return False
        # Reserve disk now so no one races the in-flight copy, but only
        # publish the placement entry when the transfer completes.
        target.store_replica(video)
        self.in_flight.add(video_id)
        delay = video.size / COPY_BANDWIDTH
        self.engine.schedule(
            delay,
            lambda: self._finish_copy(video_id, target.server_id),
            kind=f"replicate:video{video_id}",
        )
        return True

    def _finish_copy(self, video_id: int, server_id: int) -> None:
        self.in_flight.discard(video_id)
        server = self.servers[server_id]
        if not server.up:
            # Node died mid-copy; drop the reservation.
            server.drop_replica(self.catalog[video_id])
            self.failed_attempts += 1
            return
        self.placement.add_holder(video_id, server_id)
        self.replications += 1

    # ------------------------------------------------------------------
    def _choose_target(self, video_id: int) -> Optional[DataServer]:
        """Least-loaded live non-holder, preferring servers with space
        (eviction makes room on the others)."""
        holders = set(self.placement.holders(video_id))
        video = self.catalog[video_id]
        # `accepting` keeps draining/warming members out: a server on
        # its way off the cluster must not gain fresh replicas.
        candidates = [
            s
            for s in self.servers.values()
            if s.up and s.accepting and s.server_id not in holders
        ]
        if not candidates:
            return None
        pool = [s for s in candidates if s.can_store(video)] or candidates
        return min(pool, key=lambda s: (s.active_count, s.server_id))

    def _evict_for(
        self, server: DataServer, incoming_video_id: int, needed: float
    ) -> None:
        """Drop cold replicas on *server* until *needed* Mb fit.

        A replica is evictable when its video keeps a copy elsewhere,
        no active stream on this server is playing it, and no copy of
        it is in flight.
        """
        active_videos = {
            r.video.video_id for r in server.iter_active()
        }
        # Coldest first: fewest recent rejections, then largest size
        # (frees space fastest), then id for determinism.
        evictable = [
            vid
            for vid in self.placement.videos_on(server.server_id)
            if vid != incoming_video_id
            and vid not in active_videos
            and vid not in self.in_flight
            and self.placement.copies(vid) > 1
        ]
        evictable.sort(
            key=lambda vid: (
                self.rejections_since_copy.get(vid, 0),
                -self.catalog[vid].size,
                vid,
            )
        )
        for vid in evictable:
            if server.storage_free >= needed:
                break
            server.drop_replica(self.catalog[vid])
            self.placement.remove_holder(vid, server.server_id)
            self.evictions += 1
