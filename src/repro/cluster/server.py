"""A data server: outbound link, private disk, holdings, active streams.

Servers do **not** share storage (Section 2); a request can only be
served by a server that holds a replica of its video.  The outbound
link is the unit of admission: under the minimum-flow discipline a
server can host an unfinished stream only if the sum of view bandwidths
of its unfinished streams plus the newcomer's fits in the link
(Section 3.3: "a new request can be allocated to a given server if and
only if …").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.profile import DEFAULT_DISK_THROUGHPUT
from repro.cluster.request import EPS_MB, Request
from repro.workload.catalog import Video

if TYPE_CHECKING:  # pragma: no cover - hint only
    from repro.cluster.profile import ServerProfile

#: A stream in the allocator's spare order: (projected finish at
#: ``b_view``, request id, request, extra rate the client can take — 0
#: when it can take none).  The first two fields are the EFTF key; they
#: are unique per server, so comparisons never reach the request.
Candidate = Tuple[float, int, Request, float]


class StorageError(RuntimeError):
    """Raised when a replica does not fit on the server's disk."""


class DataServer:
    """One cluster node.

    Attributes:
        server_id: index within the cluster.
        nominal_bandwidth: datasheet outbound link capacity, Mb/s.
        disk_capacity: private storage, Mb.
        disk_throughput: replica copy-in rate, Mb/s (bounds warming).
        holdings: set of video ids with a local replica.
        active: unfinished requests currently assigned here, keyed by
            request id (insertion-ordered for determinism).
        floor: the *floor order* — the active streams playing at exactly
            their ``b_view`` and not VCR-paused, as
            candidate entries sorted by (projected finish, request id).
            Their ``(bytes_sent, last_sync, rate)`` are left alone (only
            a flush syncs them): at ``b_view`` neither the projected
            finish nor the buffer occupancy changes, so nothing about
            them needs re-testing until one is reached.
        floor_candidates: the entries of :attr:`floor` whose client can
            take spare bandwidth, in the same order.
        moved: every other active stream — the ones the next allocator
            pass visits (newly attached, lifted by a trigger, boosted
            or VCR-paused).
        walls: the playing streams the last allocator pass found at
            their buffer wall while still boosted by the pass before
            (Section 3.3's "buffer full" trigger), in visit order.
        up: False while the server has failed.
        accepting: False while membership keeps the server out of
            admission (joining/warming/draining); streams already here
            keep playing, but no new stream may land — the flag gates
            :meth:`has_slot`, so least-loaded picks, DRM chains and
            failover relocation all respect it.
        attaches: streams ever attached here (admissions, migrations
            and failover moves alike).  Only :meth:`attach` adds to
            :attr:`active`, so an unchanged count means the active set
            has at most lost streams since it was last read.
        drm_certificate: what the last failed DRM walk from this server
            read, kept so a later search can skip the walk while none of
            it has changed (see :mod:`repro.core.migration`); None when
            there is none.
    """

    def __init__(
        self, server_id: int, bandwidth: float, disk_capacity: float
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if disk_capacity < 0:
            raise ValueError(
                f"disk capacity must be >= 0, got {disk_capacity}"
            )
        self.server_id = int(server_id)
        #: Healthy-link datasheet capacity; the effective link composes
        #: this with the calibration weight and any link-fault scale.
        self.nominal_bandwidth = float(bandwidth)
        # The two multiplicative capacity seams.  Calibration (measured
        # vs. datasheet speed) and link degradation (a fault) compose
        # instead of overwriting each other: effective = nominal ×
        # calibration × link.
        self._calibration_scale = 1.0
        self._link_scale = 1.0
        self._effective = self.nominal_bandwidth
        self.disk_capacity = float(disk_capacity)
        self.disk_throughput = DEFAULT_DISK_THROUGHPUT
        self.holdings: Set[int] = set()
        self.storage_used = 0.0
        self.active: Dict[int, Request] = {}
        self.up = True
        self.accepting = True
        # Incrementally maintained sum of active view bandwidths; the
        # admission test runs per arrival per candidate server, so the
        # O(n) recomputation was a measured hot spot.
        self._reserved = 0.0
        # `active` is partitioned between the floor order and `moved`;
        # attach, detach, lift and fail keep the partition exact.
        self.floor: List[Candidate] = []
        self.floor_candidates: List[Candidate] = []
        self.moved: List[Request] = []
        self.walls: List[Request] = []
        self.attaches = 0
        self.drm_certificate: Optional[object] = None

    # ------------------------------------------------------------------
    # Capacity seams (calibration × link faults)
    # ------------------------------------------------------------------
    @property
    def bandwidth(self) -> float:
        """The outbound capacity every policy reads, Mb/s:
        ``nominal × calibration × link-fault scale`` (read-only; mutate
        via :meth:`apply_profile` / :meth:`set_link_scale`)."""
        return self._effective

    def apply_profile(self, profile: "ServerProfile") -> None:
        """Adopt a calibration measurement: the measured bandwidth sets
        the calibration weight, the measured storage and disk throughput
        replace the presets.  Composes with any active link fault."""
        self._calibration_scale = profile.bandwidth / self.nominal_bandwidth
        self._effective = (
            self.nominal_bandwidth * self._calibration_scale * self._link_scale
        )
        self.disk_throughput = float(profile.disk_throughput)
        if profile.storage > 0:
            self.disk_capacity = float(profile.storage)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def store_replica(self, video: Video) -> None:
        """Place a replica of *video* on this server's disk.

        Raises:
            StorageError: when the disk cannot hold another copy.
        """
        if video.video_id in self.holdings:
            return  # idempotent: at most one replica per server
        if self.storage_used + video.size > self.disk_capacity + EPS_MB:
            free = self.disk_capacity - self.storage_used
            raise StorageError(
                f"server {self.server_id}: replica of video "
                f"{video.video_id} ({video.size:.0f} Mb) exceeds free space "
                f"({free:.0f} Mb free, short by {video.size - free:.0f} Mb)"
            )
        self.holdings.add(video.video_id)
        self.storage_used += video.size

    def drop_replica(self, video: Video) -> None:
        """Remove a replica (used by dynamic placement extensions)."""
        if video.video_id in self.holdings:
            self.holdings.remove(video.video_id)
            self.storage_used -= video.size

    def holds(self, video_id: int) -> bool:
        """True when a replica of *video_id* is on local disk."""
        return video_id in self.holdings

    @property
    def storage_free(self) -> float:
        """Unused disk, Mb."""
        return max(0.0, self.disk_capacity - self.storage_used)

    def can_store(self, video: Video) -> bool:
        """True if a replica of *video* would fit (and isn't already here)."""
        if video.video_id in self.holdings:
            return False
        return self.storage_used + video.size <= self.disk_capacity + EPS_MB

    # ------------------------------------------------------------------
    # Bandwidth / admission
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Number of unfinished streams assigned here."""
        return len(self.active)

    @property
    def reserved_bandwidth(self) -> float:
        """Sum of view bandwidths of unfinished streams (the minimum-flow
        floor), Mb/s.  Maintained incrementally by attach/detach."""
        return self._reserved

    def has_slot(self, view_bandwidth: float) -> bool:
        """Minimum-flow admission test: would one more stream played at
        *view_bandwidth* fit?  Reads nothing but this server, so the
        answer holds for every such stream until the server changes.
        Per holder per arrival: it reads fields, not the properties."""
        return (
            self.up
            and self.accepting
            and self._reserved + view_bandwidth <= self._effective + EPS_MB
        )

    def has_slot_for(self, request: Request) -> bool:
        """:meth:`has_slot` for *request*'s view bandwidth."""
        return self.has_slot(request.view_bandwidth)

    # ------------------------------------------------------------------
    # Active set management (called by the transmission manager)
    # ------------------------------------------------------------------
    def attach(self, request: Request) -> None:
        """Add an unfinished stream to this server."""
        if request.request_id in self.active:
            raise ValueError(
                f"request {request.request_id} already on server {self.server_id}"
            )
        if not self.holds(request.video.video_id):
            raise ValueError(
                f"server {self.server_id} holds no replica of video "
                f"{request.video.video_id}"
            )
        self.active[request.request_id] = request
        self._reserved += request.view_bandwidth
        request.server_id = self.server_id
        self.moved.append(request)
        self.attaches += 1

    def detach(self, request: Request) -> None:
        """Remove a stream (finished, migrated away, or dropped)."""
        if self.active.pop(request.request_id, None) is None:
            raise ValueError(
                f"request {request.request_id} not on server {self.server_id}"
            )
        self._reserved -= request.view_bandwidth
        if self._reserved < 0.0:  # float guard; exact for uniform rates
            self._reserved = 0.0
        if request.floor_key is not None:
            self.unfloor(request)
        elif request in self.moved:  # not so if the last pass finished it
            self.moved.remove(request)

    # ------------------------------------------------------------------
    # The floor order (filled by the allocator pass)
    # ------------------------------------------------------------------
    def unfloor(self, request: Request) -> None:
        """Take a stream out of the floor order (it stays active)."""
        key = (request.floor_key, request.request_id)
        floor = self.floor
        del floor[bisect_left(floor, key)]
        candidates = self.floor_candidates
        i = bisect_left(candidates, key)
        if i < len(candidates) and candidates[i][2] is request:
            del candidates[i]
        request.floor_key = None

    def lift(self, request: Request) -> None:
        """Make the next pass visit *request*: a caller changed its
        playback (VCR pause/resume).  A no-op if it is off the floor."""
        if request.floor_key is not None:
            self.unfloor(request)
            self.moved.append(request)

    def iter_active(self) -> Iterable[Request]:
        """Unfinished streams in deterministic (insertion) order."""
        return self.active.values()

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while a link-degradation fault is active (independent of
        the calibration weight, which is not a fault)."""
        return self._link_scale < 1.0

    def set_link_scale(self, factor: float) -> None:
        """Scale the outbound link to ``factor`` of its calibrated
        capacity (partial link degradation fault).  ``factor=1``
        restores the healthy link.  The fault composes with the
        calibration weight instead of overwriting it — restoring the
        link lands back on the *calibrated* capacity, not the preset.

        The caller (:class:`repro.core.failover.FailoverManager`) is
        responsible for shedding streams whose minimum-flow floor no
        longer fits — this only moves the capacity number.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"link scale factor must be in (0, 1], got {factor}"
            )
        self._link_scale = float(factor)
        self._effective = (
            self.nominal_bandwidth * self._calibration_scale * self._link_scale
        )

    def fail(self) -> List[Request]:
        """Take the server down; returns (and detaches) its streams."""
        self.up = False
        orphans = list(self.active.values())
        for request in orphans:
            request.floor_key = None
        self.active.clear()
        self._reserved = 0.0
        self.floor.clear()
        self.floor_candidates.clear()
        self.moved.clear()
        return orphans

    def restore(self) -> None:
        """Bring a failed server back (holdings survive the outage)."""
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DataServer {self.server_id} bw={self.bandwidth:.0f}Mb/s "
            f"active={self.active_count} holdings={len(self.holdings)} "
            f"{'up' if self.up else 'DOWN'}>"
        )


def least_loaded(
    servers: Dict[int, DataServer],
    holder_ids: Iterable[int],
    view_bandwidth: float,
    exclude: Optional[int] = None,
) -> Optional[DataServer]:
    """Section 3.2's "server which has a copy of the requested video and
    has the fewest current requests" — admission, failover and the
    elastic drain all pick here: of the *holder_ids* in *servers* but
    *exclude*, one with a slot at *view_bandwidth* and the fewest active
    streams, else None.  *holder_ids* ascends (``PlacementMap.holders``),
    so equal loads go to the lowest id."""
    best, best_load = None, 0
    for sid in holder_ids:
        server = servers.get(sid)
        if server is not None and sid != exclude and server.has_slot(view_bandwidth):
            load = len(server.active)
            if best is None or load < best_load:
                best, best_load = server, load
    return best
