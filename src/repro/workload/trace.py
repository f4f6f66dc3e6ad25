"""Pre-generated request traces: replayable and mutable workloads.

Live Poisson generation (``arrivals.py``) is what the paper simulates,
but a materialised trace is useful for:

* **replay** — running the *same* arrival sequence under different
  policies isolates policy effects from sampling noise (paired
  comparison, lower variance than independent trials);
* **mutation** — modelling non-stationary demand (flash crowds,
  popularity drift) by editing a base trace, which the paper lists as
  future work ("extreme variations in request patterns");
* **persistence** — saving/loading workloads as simple CSV for
  cross-tool comparisons.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Sequence, Union

import numpy as np

from repro.sim.engine import Engine
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

    def video_frequencies(self, n_videos: int) -> np.ndarray:
        """Histogram of requests per video id."""
        counts = np.zeros(n_videos, dtype=np.int64)
        for req in self.requests:
            counts[req.video_id] += 1
        return counts

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "Trace":
        """Sub-trace with arrivals in [start, end), times re-based to 0."""
        return Trace(
            [
                RequestSpec(r.time - start, r.video_id)
                for r in self.requests
                if start <= r.time < end
            ]
        )

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

    def remapped(self, mapping: Callable[[int], int]) -> "Trace":
        """Apply a video-id permutation (models popularity drift)."""
        return Trace(
            [RequestSpec(r.time, mapping(r.video_id)) for r in self.requests]
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as ``time,video_id`` CSV with a header row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "video_id"])
            for req in self.requests:
                writer.writerow([f"{req.time:.6f}", req.video_id])

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`save_csv`.

        Raises:
            ValueError: naming the file and 1-based line number for a
                truncated or otherwise corrupt row (a partially written
                trace must not replay silently shortened).
        """
        requests: List[RequestSpec] = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != ["time", "video_id"]:
                raise ValueError(
                    f"{path}: expected header 'time,video_id', "
                    f"got {reader.fieldnames!r}"
                )
            # DictReader line numbers start after the header row.
            for row in reader:
                try:
                    time = float(row["time"])
                    video_id = int(row["video_id"])
                    requests.append(RequestSpec(time, video_id))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: corrupt or "
                        f"truncated trace row {row!r}: {exc}"
                    ) from None
        return cls(requests)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def schedule_on(
        self, engine: Engine, on_arrival: Callable[[int], None]
    ) -> None:
        """Schedule every arrival on *engine* (times are absolute)."""
        for req in self.requests:
            engine.schedule_at(
                req.time,
                (lambda vid=req.video_id: on_arrival(vid)),
                kind="trace-arrival",
            )


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
