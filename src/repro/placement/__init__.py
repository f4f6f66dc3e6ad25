"""Static video placement strategies (paper Sections 3.2 and 4.4).

A placement decides how many replicas each video gets and which servers
hold them, before any request arrives.  The paper's headline result is
that with staging + DRM the *simplest* scheme suffices:

* :mod:`repro.placement.even` — same number of copies for every video,
  rounding at random (popularity-oblivious).
* :mod:`repro.placement.predictive` — copies proportional to (perfectly
  known) popularity, at least one each.
* :mod:`repro.placement.partial` — "partial predictive": a few extra
  copies for the most popular titles only (Section 4.4).

All schemes share the capacity-aware random server assignment in
:mod:`repro.placement.capacity`.
"""

from repro.placement.base import PlacementMap, PlacementPolicy, PlacementResult
from repro.placement.capacity import assign_copies_randomly
from repro.placement.even import EvenPlacement
from repro.placement.partial import PartialPredictivePlacement
from repro.placement.predictive import PredictivePlacement
from repro.registry import Registry

#: Placement registry used by the simulation config layer; unknown keys
#: raise an actionable :class:`repro.registry.UnknownKeyError`.
PLACEMENTS: Registry[type] = Registry("placement")
PLACEMENTS.register(
    "even", EvenPlacement,
    help="same number of copies per video, rounding at random "
         "(popularity-oblivious; the paper's headline scheme)",
)
PLACEMENTS.register(
    "predictive", PredictivePlacement,
    help="copies proportional to perfectly known popularity",
)
PLACEMENTS.register(
    "partial", PartialPredictivePlacement,
    help="partial predictive: extra copies for the hottest titles only "
         "(Section 4.4)",
)

__all__ = [
    "EvenPlacement",
    "PLACEMENTS",
    "PartialPredictivePlacement",
    "PlacementMap",
    "PlacementPolicy",
    "PlacementResult",
    "PredictivePlacement",
    "assign_copies_randomly",
]
