"""Prefix replication: which video prefixes the proxy tier holds.

The prefix-cache tier keeps the first ``prefix_seconds`` of selected
videos on the proxy so a chained viewer can start playback instantly
from the cache while its shared feed catches up (see
:mod:`repro.prefix.chaining` for the merge math).  *Which* prefixes to
hold is a policy decision, expressed as a **plan**: an insertion-ordered
``{video_id: prefix_mb}`` dict whose total fits the configured capacity.

Strategies live in the :data:`PREFIX_STRATEGIES` registry so experiments
can swap them by name:

* ``popularity`` — rank videos hottest-first (video id is the Zipf
  model's demand rank) and greedily pack whole prefixes until capacity
  runs out.  Under Zipf demand this concentrates cache bytes where the
  request mass is.
* ``none`` — hold nothing; the tier still observes traffic (useful as
  the no-cache baseline in the with/without-tier capacity figure).

The tier plans once, at build time, and warms the plan in its order.
A strategy is a callable ``(tier) -> Dict[int, float]`` reading
``tier.catalog`` / ``tier.policy`` — register new ones with
``@PREFIX_STRATEGIES.register(name, help=...)``; see
``docs/CACHING.md`` for the recipe.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.request import EPS_MB
from repro.registry import Registry

#: Pluggable prefix-replication strategies ``(tier) -> {video_id: Mb}``.
PREFIX_STRATEGIES: Registry = Registry("prefix strategy")


@PREFIX_STRATEGIES.register(
    "popularity",
    help="pack whole prefixes hottest-first until capacity runs out",
)
def plan_popularity(tier) -> Dict[int, float]:
    prefixes = tier.catalog.prefix_sizes(tier.policy.prefix_seconds)
    plan: Dict[int, float] = {}
    used = 0.0
    capacity = tier.policy.capacity_mb
    # Id order is demand order: the Zipf model ranks video 0 hottest
    # over the whole theta range SimulationConfig admits.
    for video_id in range(len(prefixes)):
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
    """The warmed video prefixes, sized in megabits.

    The tier stores each prefix of its plan here as its warm lands;
    the plan already fits the configured capacity.
    """

    def __init__(self) -> None:
        #: Warmed prefixes: ``{video_id: Mb}``.
        self.entries: Dict[int, float] = {}

    @property
    def bytes_held(self) -> float:
        """Total warmed megabits currently resident."""
        return sum(self.entries.values())

    def warmed_mb(self, video_id: int) -> float:
        """Warmed prefix size for *video_id* (0.0 when absent)."""
        return self.entries.get(video_id, 0.0)
