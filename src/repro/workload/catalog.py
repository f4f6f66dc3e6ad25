"""Video catalog: titles, lengths, sizes, view bandwidth.

The paper (Figure 3 / Section 4.1) draws each video's length uniformly
at random from a range (10–30 min small system, 1–2 h large system); all
videos play at the same 3 Mb/s view bandwidth, so a video's size in
megabits is ``length_seconds * view_bandwidth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple  # noqa: F401 - Tuple used in hints

import numpy as np

from repro.units import DEFAULT_VIEW_BANDWIDTH


@dataclass(frozen=True)
class Video:
    """An immutable catalog entry.

    Attributes:
        video_id: 0-based index; by convention, also the popularity rank
            (0 = most popular) so placement code can use ids directly.
        length: playback duration in seconds.
        view_bandwidth: playback rate in Mb/s.
    """

    video_id: int
    length: float
    view_bandwidth: float = DEFAULT_VIEW_BANDWIDTH
    #: Total data volume in megabits (= length × view_bandwidth).
    #: Materialised at construction — it is read millions of times in
    #: the scheduler's inner loop.
    size: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"video length must be positive, got {self.length}")
        if self.view_bandwidth <= 0:
            raise ValueError(
                f"view bandwidth must be positive, got {self.view_bandwidth}"
            )
        object.__setattr__(self, "size", self.length * self.view_bandwidth)


@dataclass(frozen=True)
class VideoCatalog:
    """An ordered collection of :class:`Video` objects.

    Index ``i`` is popularity rank ``i + 1``; demand distributions from
    :mod:`repro.workload.zipf` index into the catalog directly.
    """

    videos: Tuple[Video, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.videos)

    def __iter__(self) -> Iterator[Video]:
        return iter(self.videos)

    def __getitem__(self, video_id: int) -> Video:
        return self.videos[video_id]

    @property
    def sizes(self) -> np.ndarray:
        """Vector of video sizes (Mb), catalog order."""
        return np.array([v.size for v in self.videos], dtype=np.float64)

    @property
    def lengths(self) -> np.ndarray:
        """Vector of video lengths (s), catalog order."""
        return np.array([v.length for v in self.videos], dtype=np.float64)

    @property
    def mean_size(self) -> float:
        """Unweighted mean video size (Mb) — the basis for staging-buffer
        percentages ("20 % of the average sized video")."""
        return float(self.sizes.mean())

    def total_size(self) -> float:
        """Sum of all single-copy sizes (Mb)."""
        return float(self.sizes.sum())

    def prefix_sizes(self, prefix_seconds: float) -> np.ndarray:
        """Per-video size (Mb) of the first *prefix_seconds*, catalog order.

        A short video contributes its whole size — a prefix is never
        larger than the title it fronts.  Used by the prefix-cache tier
        (:mod:`repro.prefix`) to budget its bounded capacity.
        """
        if prefix_seconds <= 0:
            raise ValueError(
                f"prefix_seconds must be positive, got {prefix_seconds}"
            )
        clipped = np.minimum(self.lengths, float(prefix_seconds))
        bandwidths = np.array(
            [v.view_bandwidth for v in self.videos], dtype=np.float64
        )
        return clipped * bandwidths


def make_catalog(
    n_videos: int,
    length_range: Sequence[float],
    rng: np.random.Generator,
    view_bandwidth: float = DEFAULT_VIEW_BANDWIDTH,
) -> VideoCatalog:
    """Build a catalog with lengths ~ Uniform(length_range).

    Args:
        n_videos: number of titles.
        length_range: (low, high) in seconds, inclusive-exclusive.
        rng: random stream (use ``RandomStreams.get("catalog")``).
        view_bandwidth: playback rate, Mb/s.

    Returns:
        A :class:`VideoCatalog` whose index order is the popularity rank
        order used by the demand distribution.
    """
    low, high = float(length_range[0]), float(length_range[1])
    if n_videos < 1:
        raise ValueError(f"n_videos must be >= 1, got {n_videos}")
    if not 0 < low <= high:
        raise ValueError(f"invalid length range ({low}, {high})")
    lengths = rng.uniform(low, high, size=n_videos)
    videos: List[Video] = [
        Video(video_id=i, length=float(lengths[i]), view_bandwidth=view_bandwidth)
        for i in range(n_videos)
    ]
    return VideoCatalog(videos=tuple(videos))
