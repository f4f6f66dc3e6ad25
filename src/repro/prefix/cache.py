"""Prefix replication: which video prefixes the proxy tier holds.

The prefix-cache tier keeps the first ``prefix_seconds`` of selected
videos on the proxy so a chained viewer can start playback instantly
from the cache while its shared feed catches up (see
:mod:`repro.prefix.chaining` for the merge math).  *Which* prefixes to
hold is a policy decision, expressed as a **plan**: an insertion-ordered
``{video_id: prefix_mb}`` dict whose total fits the configured capacity.

Strategies live in the :data:`PREFIX_STRATEGIES` registry so experiments
can swap them by name:

* ``popularity`` — rank videos hottest-first (through the placement
  policy's ``warm_targets`` seam, so placement-aware rankings apply
  automatically) and greedily pack whole prefixes until capacity runs
  out.  Under Zipf demand this concentrates cache bytes where the
  request mass is.
* ``none`` — hold nothing; the tier still observes traffic (useful as
  the no-cache baseline in the with/without-tier capacity figure).

A strategy is a callable ``(tier) -> Dict[int, float]`` reading
``tier.catalog`` / ``tier.popularity`` / ``tier.policy`` — register new
ones with ``@PREFIX_STRATEGIES.register(name, help=...)``; see
``docs/CACHING.md`` for the recipe.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.request import EPS_MB
from repro.cluster.server import DataServer
from repro.registry import Registry
from repro.workload.zipf import popularity_ranks

#: Pluggable prefix-replication strategies ``(tier) -> {video_id: Mb}``.
PREFIX_STRATEGIES: Registry = Registry("prefix strategy")


def hottest_first(tier) -> List[int]:
    """Video ids in demand order, hottest first.

    Routed through the placement policy's ``warm_targets`` seam (with an
    unconstrained proxy server, so nothing is skipped for space) when a
    placement policy is wired; falls back to a direct argsort of the
    Zipf demand vector otherwise.  Both paths are deterministic.
    """
    catalog = tier.catalog
    if tier.placement_policy is not None:
        proxy = DataServer(-1, 1.0, catalog.total_size() + 1.0)
        return list(
            tier.placement_policy.warm_targets(
                catalog, tier.popularity, tier.placement, proxy, len(catalog)
            )
        )
    probs = popularity_ranks(len(catalog), tier.popularity.theta)
    return [int(v) for v in np.argsort(-probs, kind="stable")]


@PREFIX_STRATEGIES.register(
    "popularity",
    help="pack whole prefixes hottest-first until capacity runs out",
)
def plan_popularity(tier) -> Dict[int, float]:
    prefixes = tier.catalog.prefix_sizes(tier.policy.prefix_seconds)
    plan: Dict[int, float] = {}
    used = 0.0
    capacity = tier.policy.capacity_mb
    for video_id in hottest_first(tier):
        mb = float(prefixes[video_id])
        if mb <= EPS_MB:
            continue
        if used + mb > capacity + EPS_MB:
            continue  # keep scanning: a shorter, colder video may fit
        plan[video_id] = mb
        used += mb
    return plan


@PREFIX_STRATEGIES.register(
    "none",
    help="hold no prefixes (no-cache baseline for the capacity figure)",
)
def plan_none(tier) -> Dict[int, float]:
    return {}


class PrefixCache:
    """Bounded store of warmed video prefixes, sized in megabits.

    The cache distinguishes the *target* plan (what the active strategy
    wants resident) from the *warmed* entries (what has actually been
    pulled off disk).  :meth:`retarget` swaps the plan — evicting
    entries the new plan no longer wants (eviction is instant; warming
    is not) — and returns the entries still to warm, in plan order.
    The tier drives those through the engine at disk throughput and
    calls :meth:`commit` as each completes; commits that a later
    retarget has obsoleted are ignored.

    Args:
        capacity_mb: total budget for warmed prefixes (>= 0).
    """

    def __init__(self, capacity_mb: float) -> None:
        if capacity_mb < 0:
            raise ValueError(f"capacity_mb must be >= 0, got {capacity_mb}")
        self.capacity_mb = float(capacity_mb)
        #: Warmed prefixes: ``{video_id: Mb}``.
        self.entries: Dict[int, float] = {}
        self._target: Dict[int, float] = {}

    @property
    def bytes_held(self) -> float:
        """Total warmed megabits currently resident."""
        return sum(self.entries.values())

    def warmed_mb(self, video_id: int) -> float:
        """Warmed prefix size for *video_id* (0.0 when absent)."""
        return self.entries.get(video_id, 0.0)

    def retarget(self, plan: Dict[int, float]) -> List[Tuple[int, float]]:
        """Adopt a new target *plan*; returns ``(video_id, mb)`` pairs
        still to warm, in plan order.

        Raises:
            ValueError: if the plan oversubscribes the capacity.
        """
        total = sum(plan.values())
        if total > self.capacity_mb + EPS_MB:
            raise ValueError(
                f"prefix plan wants {total:.1f} Mb but capacity is "
                f"{self.capacity_mb:.1f} Mb"
            )
        for video_id in [v for v in self.entries if v not in plan]:
            del self.entries[video_id]
        for video_id, mb in plan.items():
            held = self.entries.get(video_id)
            if held is not None and abs(held - mb) > EPS_MB:
                del self.entries[video_id]  # size changed: re-warm
        self._target = dict(plan)
        return [
            (video_id, mb)
            for video_id, mb in plan.items()
            if video_id not in self.entries
        ]

    def commit(self, video_id: int, mb: float) -> bool:
        """Record a completed warm; ignored (returns False) when a later
        retarget no longer wants this entry at this size."""
        want = self._target.get(video_id)
        if want is None or abs(want - mb) > EPS_MB:
            return False
        self.entries[video_id] = float(mb)
        return True
