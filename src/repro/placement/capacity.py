"""Capacity-aware random assignment of replicas to servers.

Section 4.1: "a subset of the servers is chosen at random for each
video and copies of that video are placed on the selected servers."

We honour disk capacities: a server with insufficient free space is not
a candidate.  When fewer candidates than requested copies exist, the
video gets as many replicas as fit and the deficit is reported as
``shortfall`` (the paper's configurations are feasible, so this is 0 in
the reproduced experiments; it matters for stress tests).

Videos are placed in descending size order — the classic first-fit-
decreasing trick — so large videos are not squeezed out by earlier
small ones.

A layout is placed once per distinct input and replayed after that:
the common-random-numbers seed ladder gives every cell of one trial the
same placement seed, so a figure would otherwise place the same layout
in each cell.  The memo is process-local, keeps the
:data:`LAYOUT_SLOTS` most recently used layouts, and is exact.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.server import DataServer
from repro.placement.base import PlacementMap
from repro.workload.catalog import VideoCatalog

#: Layouts kept per process; a figure's working set is its trial seeds.
LAYOUT_SLOTS = 8
#: input key -> (stores as (server index, video id), holders, shortfall,
#: generator state on exit); see :func:`assign_copies_randomly`.
_LAYOUTS: "OrderedDict[tuple, tuple]" = OrderedDict()


def assign_copies_randomly(
    catalog: VideoCatalog,
    counts: np.ndarray,
    servers: Sequence[DataServer],
    rng: np.random.Generator,
) -> Tuple[PlacementMap, int]:
    """Place ``counts[v]`` replicas of each video on random servers.

    Args:
        catalog: the videos.
        counts: desired replicas per video id, each in [1, n_servers].
        servers: the cluster's servers; their disks are mutated.
        rng: placement random stream.

    Placement is two-phase so that a tight disk budget sheds *extra*
    replicas before it ever leaves a video without any copy (Section
    3.2: the policies are "required to make at least one copy of each
    video, assuming the availability of storage"):

    1. one copy of every video, largest first (first-fit decreasing);
    2. the remaining ``counts[v] - 1`` copies, largest first.

    Layouts are memoised on everything read here (videos, counts, each
    server's id, disk and holdings, the generator's state); a hit
    replays the stores through :meth:`DataServer.store_replica`, sets
    the generator's exit state and returns a new map.

    Returns:
        (placement map, shortfall) where shortfall counts replicas that
        did not fit anywhere.
    """
    if len(counts) != len(catalog):
        raise ValueError(
            f"counts length {len(counts)} != catalog size {len(catalog)}"
        )
    key = (
        tuple((v.video_id, v.size) for v in catalog),
        tuple(np.asarray(counts).tolist()),
        tuple(
            (s.server_id, s.disk_capacity, s.storage_used, frozenset(s.holdings))
            for s in servers
        ),
        pickle.dumps(rng.bit_generator.state),
    )
    layout = _LAYOUTS.get(key)
    if layout is not None:
        _LAYOUTS.move_to_end(key)
        stores, placed, shortfall, exit_state = layout
        videos = catalog.videos
        for index, vid in stores:
            servers[index].store_replica(videos[vid])
        rng.bit_generator.state = exit_state
        return PlacementMap(placed), shortfall
    stores: List[Tuple[int, int]] = []
    holders: Dict[int, List[int]] = {vid: [] for vid in range(len(catalog))}
    shortfall = 0
    # First-fit-decreasing over video size; ties broken by id for
    # determinism.
    order = sorted(range(len(catalog)), key=lambda v: (-catalog[v].size, v))

    def place(vid: int, want: int) -> int:
        """Place up to *want* replicas of *vid*; returns the deficit."""
        if want <= 0:
            return 0
        video = catalog[vid]
        candidates = [i for i, s in enumerate(servers) if s.can_store(video)]
        placed_now = min(want, len(candidates))
        if placed_now > 0:
            chosen = rng.choice(len(candidates), size=placed_now, replace=False)
            for idx in np.atleast_1d(chosen):
                index = candidates[int(idx)]
                servers[index].store_replica(video)
                holders[vid].append(servers[index].server_id)
                stores.append((index, vid))
        return want - placed_now

    for vid in order:  # phase 1: coverage (attempt one copy each)
        shortfall += place(vid, min(1, int(counts[vid])))
    for vid in order:  # phase 2: replication (the remaining copies)
        shortfall += place(vid, int(counts[vid]) - min(1, int(counts[vid])))
    placed = {vid: tuple(srvs) for vid, srvs in holders.items()}
    _LAYOUTS[key] = (stores, placed, shortfall, rng.bit_generator.state)
    if len(_LAYOUTS) > LAYOUT_SLOTS:
        _LAYOUTS.popitem(last=False)
    return PlacementMap(placed), shortfall
