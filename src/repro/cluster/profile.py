"""Server capacity profiles: measured inputs for placement/admission.

The preset numbers in :class:`repro.cluster.system.SystemConfig` are
*nominal* capacities — what the hardware datasheet claims.  The
FFmpeg-Cluster exemplar benchmarks every node before partitioning work
by *measured* speed; this module applies the same idea to the cluster
model.  A :func:`calibrate` pass produces one :class:`ServerProfile`
per server (effective outbound bandwidth, disk copy-in throughput,
usable storage) from a deterministic simulated micro-benchmark on a
named RNG substream, and every capacity a policy reads downstream —
placement disk fitting, minimum-flow admission, EFTF spare-bandwidth
allocation, DRM chain search — flows through
:attr:`repro.cluster.server.DataServer.bandwidth`, never the
preset constants.

With ``jitter=0`` (the default) the measured numbers equal the nominal
ones exactly, so calibration is digest-neutral unless a scenario opts
into measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.serialize import Config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports us)
    from repro.cluster.system import SystemConfig

#: Nominal disk copy-in rate, Mb/s, when no calibration measures one.
#: Matches :data:`repro.core.replication.COPY_BANDWIDTH`, the
#: tertiary-storage rate, so warming and replication agree.
DEFAULT_DISK_THROUGHPUT = 100.0


@dataclass(frozen=True)
class ServerProfile:
    """Measured capacities of one server.

    Attributes:
        server_id: which server this profile describes.
        bandwidth: effective outbound link capacity, Mb/s.
        disk_throughput: replica copy-in rate, Mb/s (bounds warming).
        storage: usable disk, Mb.
    """

    server_id: int
    bandwidth: float
    disk_throughput: float = DEFAULT_DISK_THROUGHPUT
    storage: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(
                f"profile bandwidth must be positive, got {self.bandwidth}"
            )
        if self.disk_throughput <= 0:
            raise ValueError(
                f"profile disk_throughput must be positive, "
                f"got {self.disk_throughput}"
            )
        if self.storage < 0:
            raise ValueError(
                f"profile storage must be >= 0, got {self.storage}"
            )


@dataclass(frozen=True)
class ClusterProfile:
    """One profile per server: the calibrated view of a whole cluster.

    Attributes:
        profiles: per-server profiles, ordered by server id.
        calibrated: False for the identity profile (nominal == measured).
    """

    profiles: Tuple[ServerProfile, ...]
    calibrated: bool = False

    def __post_init__(self) -> None:
        ids = [p.server_id for p in self.profiles]
        if ids != sorted(set(ids)):
            raise ValueError(
                f"profiles must be unique and ordered by server id, got {ids}"
            )

    @property
    def total_bandwidth(self) -> float:
        """Cluster effective egress, Mb/s."""
        return float(sum(p.bandwidth for p in self.profiles))


@dataclass(frozen=True)
class CalibrationConfig(Config):
    """How the calibration micro-benchmark probes each server.

    Attributes:
        trials: probe repetitions per server; the median is kept, so a
            single outlier measurement cannot skew a weight.
        jitter: relative standard deviation of one probe measurement.
            ``0`` (default) makes calibration exact — measured equals
            nominal and every existing digest is unchanged.

    The disk probe measures around :data:`DEFAULT_DISK_THROUGHPUT`.
    """

    trials: int = 3
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 <= self.jitter < 0.5:
            raise ValueError(
                f"jitter must be in [0, 0.5), got {self.jitter}"
            )


def _measure(
    nominal: float,
    config: CalibrationConfig,
    rng: np.random.Generator,
) -> float:
    """One probe: median of ``trials`` noisy samples around *nominal*.

    Draws happen even at ``jitter=0`` so enabling noise later does not
    shift any *other* substream — the draw count per server is fixed.
    """
    samples = nominal * (1.0 + config.jitter * rng.standard_normal(config.trials))
    measured = float(np.median(samples))
    # A probe cannot report a nonsensical capacity; clamp to half/double
    # nominal (jitter < 0.5 keeps the clamp rarely binding).
    return min(max(measured, 0.5 * nominal), 2.0 * nominal)


def calibrate_server(
    server_id: int,
    bandwidth: float,
    storage: float,
    config: CalibrationConfig,
    rng: np.random.Generator,
) -> ServerProfile:
    """Benchmark one server: link probe then disk probe, both medians."""
    return ServerProfile(
        server_id=server_id,
        bandwidth=_measure(bandwidth, config, rng),
        disk_throughput=_measure(DEFAULT_DISK_THROUGHPUT, config, rng),
        storage=float(storage),
    )


def calibrate(
    system: "SystemConfig",
    config: CalibrationConfig,
    rng: np.random.Generator,
) -> ClusterProfile:
    """Deterministic calibration pass over every server of *system*.

    Servers are probed in id order on the caller's substream, so the
    same seed always yields the same profile.
    """
    profiles = tuple(
        calibrate_server(i, bw, disk, config, rng)
        for i, (bw, disk) in enumerate(
            zip(system.server_bandwidths, system.disk_capacities)
        )
    )
    return ClusterProfile(profiles=profiles, calibrated=True)


def identity_profile(system: "SystemConfig") -> ClusterProfile:
    """The uncalibrated view: measured capacities equal the presets."""
    profiles = tuple(
        ServerProfile(
            server_id=i,
            bandwidth=float(bw),
            disk_throughput=DEFAULT_DISK_THROUGHPUT,
            storage=float(disk),
        )
        for i, (bw, disk) in enumerate(
            zip(system.server_bandwidths, system.disk_capacities)
        )
    )
    return ClusterProfile(profiles=profiles, calibrated=False)
