"""Client capability profile: staging buffer and receive bandwidth.

The paper distinguishes *client buffering* (small memory buffer) from
*client staging* (larger disk buffer for workahead transmission); the
model only needs their combined capacity.  Section 4.3 expresses the
staging buffer "as a percentage of the storage required to store an
entire copy of the average sized video".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import DEFAULT_CLIENT_RECEIVE_BANDWIDTH


@dataclass(frozen=True)
class ClientProfile:
    """Capabilities of a receiving client.

    Attributes:
        buffer_capacity: staging buffer size in Mb; 0 forces purely
            continuous transmission, ``math.inf`` removes the limit
            (the Theorem 1 regime).
        receive_bandwidth: maximum rate the client can ingest, Mb/s;
            the staging experiments cap this at 30 Mb/s.
    """

    buffer_capacity: float = 0.0
    receive_bandwidth: float = DEFAULT_CLIENT_RECEIVE_BANDWIDTH

    def __post_init__(self) -> None:
        if self.buffer_capacity < 0:
            raise ValueError(
                f"buffer capacity must be >= 0, got {self.buffer_capacity}"
            )
        if self.receive_bandwidth <= 0:
            raise ValueError(
                f"receive bandwidth must be positive, got {self.receive_bandwidth}"
            )


def staging_capacity(fraction: float, mean_video_size: float) -> float:
    """Buffer capacity (Mb) for a staging degree given as a fraction.

    Args:
        fraction: staging degree, e.g. 0.2 for the paper's near-optimal
            "20 % of the average sized video"; 1.0 stores a whole
            average video.
        mean_video_size: catalog mean video size in Mb.
    """
    if fraction < 0:
        raise ValueError(f"staging fraction must be >= 0, got {fraction}")
    if mean_video_size <= 0:
        raise ValueError(
            f"mean video size must be positive, got {mean_video_size}"
        )
    return fraction * mean_video_size
