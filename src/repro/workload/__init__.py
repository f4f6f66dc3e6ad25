"""Workload generation: demand skew, video catalogs, arrival processes.

The paper's evaluation (Section 4.1) drives the cluster with:

* a **Zipf-like popularity** over videos with skew parameter θ varied
  from −1.5 (pathologically skewed) to 1 (uniform) —
  :mod:`repro.workload.zipf`;
* a **video catalog** whose lengths are uniform over a range (10–30 min
  for the small system, 1–2 h for the large one) at a 3 Mb/s view rate —
  :mod:`repro.workload.catalog`;
* a **Poisson arrival process** calibrated to 100 % offered load —
  :mod:`repro.workload.arrivals`;
* optional pre-generated **request traces** for replayable and mutated
  workloads (flash crowds) —
  :mod:`repro.workload.trace`.
"""

from repro.workload.arrivals import PoissonArrivalProcess, calibrated_arrival_rate
from repro.workload.catalog import Video, VideoCatalog, make_catalog
from repro.workload.trace import RequestSpec, Trace, generate_trace
from repro.workload.zipf import ZipfPopularity, popularity_ranks

__all__ = [
    "PoissonArrivalProcess",
    "RequestSpec",
    "Trace",
    "Video",
    "VideoCatalog",
    "ZipfPopularity",
    "calibrated_arrival_rate",
    "generate_trace",
    "make_catalog",
    "popularity_ranks",
]
