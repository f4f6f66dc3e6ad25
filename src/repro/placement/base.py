"""Placement abstractions: the replica map and the policy interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.server import DataServer
from repro.workload.catalog import VideoCatalog
from repro.workload.zipf import ZipfPopularity


class PlacementMap:
    """Mapping video id → holder server ids.

    Built before the simulation starts (the paper's static placement,
    Section 4.1) and changed during a run only through
    :meth:`add_holder` / :meth:`remove_holder`: elastic warming and
    drains (:mod:`repro.core.elastic`), replica loss
    (:mod:`repro.core.failover`) and dynamic replication
    (:mod:`repro.core.replication`).  Provides the lookups the admission
    path needs.

    Attributes:
        version: bumped whenever a holder tuple actually changes, so a
            reader can tell "same map as when I last looked" without
            comparing it (the DRM search's certificates do).
    """

    def __init__(self, holders: Dict[int, Tuple[int, ...]]) -> None:
        self._holders: Dict[int, Tuple[int, ...]] = {
            vid: tuple(sorted(set(srvs))) for vid, srvs in holders.items()
        }
        self.version = 0

    def holders(self, video_id: int) -> Tuple[int, ...]:
        """Server ids holding a replica of *video_id* (possibly empty)."""
        return self._holders.get(video_id, ())

    def add_holder(self, video_id: int, server_id: int) -> None:
        """Register a new replica (a joiner warmed, a sole replica
        evacuated, or dynamic replication copied one)."""
        current = self._holders.get(video_id, ())
        if server_id not in current:
            self._holders[video_id] = tuple(sorted((*current, server_id)))
            self.version += 1

    def remove_holder(self, video_id: int, server_id: int) -> None:
        """Deregister a replica (departure, replica loss, eviction)."""
        current = self._holders.get(video_id, ())
        if server_id in current:
            self._holders[video_id] = tuple(
                s for s in current if s != server_id
            )
            self.version += 1

    def copies(self, video_id: int) -> int:
        """Replica count of *video_id*."""
        return len(self._holders.get(video_id, ()))

    def videos_on(self, server_id: int) -> List[int]:
        """Video ids with a replica on *server_id*, sorted."""
        return sorted(
            vid for vid, srvs in self._holders.items() if server_id in srvs
        )

    def __len__(self) -> int:
        return len(self._holders)


@dataclass
class PlacementResult:
    """A placement plus bookkeeping about how it was achieved.

    Attributes:
        placement: the replica map.
        requested_copies: copies the policy wanted per video id.
        shortfall: copies that could not be placed for lack of disk
            space (0 in the paper's feasible configurations).
    """

    placement: PlacementMap
    requested_copies: np.ndarray
    shortfall: int = 0


class PlacementPolicy(abc.ABC):
    """Interface: decide per-video replica counts, then place them.

    Subclasses implement :meth:`copy_counts`; the shared capacity-aware
    random assignment (``repro.placement.capacity``) turns counts into a
    :class:`PlacementMap`.

    Every policy is additionally **membership-capable**: the elastic
    scaler (:mod:`repro.core.elastic`) consults :meth:`warm_targets`
    when a server joins mid-run and :meth:`on_server_depart` when one
    leaves.  ``repro list`` prints :meth:`lifecycle_hooks` per entry.
    """

    name: str = "abstract"

    #: Membership lifecycle hook names (in call order over a server's
    #: life); :meth:`lifecycle_hooks` reports which a class provides.
    _LIFECYCLE_HOOKS = ("warm_targets", "on_server_depart")

    @classmethod
    def lifecycle_hooks(cls) -> Tuple[str, ...]:
        """Names of the membership hooks this policy implements."""
        return tuple(
            name
            for name in cls._LIFECYCLE_HOOKS
            if callable(getattr(cls, name, None))
        )

    def warm_targets(
        self,
        catalog: VideoCatalog,
        popularity: ZipfPopularity,
        placement: PlacementMap,
        server: DataServer,
        limit: int,
    ) -> List[int]:
        """Videos worth warming onto a joining *server*, hottest first.

        The default seeds the most popular videos (id order is rank
        order) the server does not yet hold, respecting its free disk;
        subclasses may reorder (e.g. a prefix-caching policy would warm
        prefixes instead).  Deterministic: no RNG involved.
        """
        targets: List[int] = []
        budget = server.storage_free
        for vid in range(len(catalog)):
            if len(targets) >= limit:
                break
            if server.holds(vid):
                continue
            size = catalog[vid].size
            if size > budget:
                continue
            targets.append(vid)
            budget -= size
        return targets

    def on_server_depart(
        self, placement: PlacementMap, server: DataServer
    ) -> None:
        """Hook: *server*'s replicas are about to leave *placement*.

        The base implementation does nothing — the elastic scaler
        removes the holder entries itself; policies that keep side
        state (caches, shard maps) override this to stay consistent.
        """

    @abc.abstractmethod
    def copy_counts(
        self,
        catalog: VideoCatalog,
        popularity: ZipfPopularity,
        total_copies: int,
        n_servers: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return an integer vector of desired replica counts.

        Implementations must return counts in ``[1, n_servers]`` per
        video summing (approximately) to *total_copies*.
        """

    def allocate(
        self,
        catalog: VideoCatalog,
        popularity: ZipfPopularity,
        servers: Sequence[DataServer],
        total_copies: int,
        rng: np.random.Generator,
    ) -> PlacementResult:
        """Compute counts and place replicas on *servers* (mutating their
        disks).  See :func:`repro.placement.capacity.assign_copies_randomly`.
        """
        from repro.placement.capacity import assign_copies_randomly

        counts = self.copy_counts(
            catalog, popularity, total_copies, len(servers), rng
        )
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(catalog),):
            raise ValueError(
                f"{self.name}: expected {len(catalog)} counts, got {counts.shape}"
            )
        if (counts < 1).any():
            raise ValueError(f"{self.name}: every video needs >= 1 copy")
        if (counts > len(servers)).any():
            raise ValueError(
                f"{self.name}: copy count exceeds server count "
                f"(replicas must sit on distinct servers)"
            )
        placement, shortfall = assign_copies_randomly(
            catalog, counts, servers, rng
        )
        return PlacementResult(
            placement=placement, requested_copies=counts, shortfall=shortfall
        )


def clamp_counts_to_total(
    counts: np.ndarray, total: int, n_servers: int, rng: np.random.Generator
) -> np.ndarray:
    """Adjust integer *counts* so they sum to *total*, respecting bounds.

    Adds/removes single copies from randomly chosen eligible videos.
    Used by the proportional policies after rounding.  If the bounds
    make *total* unreachable (e.g. fewer videos×servers than total) the
    closest achievable sum is returned.
    """
    counts = counts.astype(np.int64).copy()
    n = len(counts)
    guard = 0
    while counts.sum() != total and guard < 10 * n + total:
        guard += 1
        diff = total - int(counts.sum())
        if diff > 0:
            eligible = np.flatnonzero(counts < n_servers)
            if eligible.size == 0:
                break
            counts[rng.choice(eligible)] += 1
        else:
            eligible = np.flatnonzero(counts > 1)
            if eligible.size == 0:
                break
            counts[rng.choice(eligible)] -= 1
    return counts
