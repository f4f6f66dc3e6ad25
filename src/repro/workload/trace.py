"""Pre-generated request traces: replayable and mutable workloads.

Live Poisson generation (``arrivals.py``) is what the paper simulates,
but a materialised trace is useful for:

* **replay** — running the *same* arrival sequence under different
  policies isolates policy effects from sampling noise (paired
  comparison, lower variance than independent trials);
* **mutation** — modelling non-stationary demand (a flash crowd) by
  editing a base trace, which the paper lists as future work ("extreme
  variations in request patterns").

A trace is replayed by submitting each arrival to a
:class:`repro.Simulation` (``Simulation.submit``, then ``finish``).  The
live gateway's load generator (:mod:`repro.serve.loadgen`) replays the
one a scenario's own run decides (``arrival_trace``);
``examples/flash_crowd.py`` mutates one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.workload.zipf import ZipfPopularity


@dataclass(frozen=True)
class RequestSpec:
    """One arrival in a trace: (time, video)."""

    time: float
    video_id: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"arrival time must be >= 0, got {self.time}")
        if self.video_id < 0:
            raise ValueError(f"video_id must be >= 0, got {self.video_id}")


class Trace:
    """An ordered sequence of :class:`RequestSpec`.

    Construction sorts by time (stable), so mutated traces stay valid.
    """

    def __init__(self, requests: Sequence[RequestSpec]) -> None:
        self.requests: List[RequestSpec] = sorted(requests, key=lambda r: r.time)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[RequestSpec]:
        return iter(self.requests)

    def __getitem__(self, i: int) -> RequestSpec:
        return self.requests[i]

    @property
    def duration(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return self.requests[-1].time if self.requests else 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def with_flash_crowd(
        self,
        video_id: int,
        start: float,
        duration: float,
        extra_rate: float,
        rng: np.random.Generator,
    ) -> "Trace":
        """Overlay a Poisson burst of requests for one video.

        Models a flash crowd: ``extra_rate`` req/s for *video_id* during
        [start, start+duration) on top of the base trace.
        """
        extra: List[RequestSpec] = []
        t = start + float(rng.exponential(1.0 / extra_rate))
        while t < start + duration:
            extra.append(RequestSpec(t, video_id))
            t += float(rng.exponential(1.0 / extra_rate))
        return Trace(self.requests + extra)


def generate_trace(
    duration: float,
    rate: float,
    popularity: ZipfPopularity,
    rng: np.random.Generator,
) -> Trace:
    """Materialise a Poisson/Zipf trace of the given duration.

    Statistically identical to :class:`PoissonArrivalProcess` output
    with the same rate and demand distribution.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    # Draw arrival count, then order statistics of uniforms: equivalent
    # to summing exponentials but one vectorised numpy call.
    count = int(rng.poisson(rate * duration))
    times = np.sort(rng.uniform(0.0, duration, size=count))
    videos = popularity.sample(rng, size=count) if count else np.array([], int)
    return Trace(
        [RequestSpec(float(t), int(v)) for t, v in zip(times, videos)]
    )
