"""System configurations: the paper's Figure 3 presets and variants.

Figure 3 defines two reference systems, :data:`SMALL_SYSTEM` and
:data:`LARGE_SYSTEM`; :func:`figure3_table` (``repro fig3``) prints the
table from them.

The catalog sizes are unreadable in the available copy of the paper; we
pick 300 (small) and 200 (large) titles, the largest round numbers for
which 2.2 copies per video fit the stated disks (see DESIGN.md).  The
resulting server-to-view-bandwidth ratios (SVBR) — 33 streams/server
small, 100 large — are the quantities the paper's analysis keys on.

Section 4.6 studies **heterogeneous** clusters;
:func:`heterogeneous_bandwidth` / :func:`heterogeneous_storage` spread a
fixed total unevenly so heterogeneous and homogeneous systems are
capacity-matched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.cluster.profile import ClusterProfile
from repro.cluster.server import DataServer
from repro.registry import Registry
from repro.units import (
    DEFAULT_CLIENT_RECEIVE_BANDWIDTH,
    DEFAULT_VIEW_BANDWIDTH,
    gb_to_mb,
    mb_to_gb,
    minutes,
)


@dataclass(frozen=True)
class SystemConfig:
    """A full cluster + workload parameterisation.

    Attributes:
        name: human-readable label.
        server_bandwidths: per-server outbound capacity, Mb/s.
        disk_capacities: per-server storage, Mb.
        n_videos: catalog size.
        video_length_range: (low, high) playback seconds.
        avg_copies: mean replicas per video (paper: 2.2).
        view_bandwidth: playback rate, Mb/s.
        client_receive_bandwidth: per-client ingest cap, Mb/s.
    """

    name: str
    server_bandwidths: Tuple[float, ...]
    disk_capacities: Tuple[float, ...]
    n_videos: int
    video_length_range: Tuple[float, float]
    avg_copies: float = 2.2
    view_bandwidth: float = DEFAULT_VIEW_BANDWIDTH
    client_receive_bandwidth: float = DEFAULT_CLIENT_RECEIVE_BANDWIDTH

    def __post_init__(self) -> None:
        if len(self.server_bandwidths) != len(self.disk_capacities):
            raise ValueError(
                "server_bandwidths and disk_capacities must have equal length"
            )
        if not self.server_bandwidths:
            raise ValueError("a system needs at least one server")
        if self.n_videos < 1:
            raise ValueError(f"n_videos must be >= 1, got {self.n_videos}")
        if self.avg_copies < 1.0:
            raise ValueError(
                f"avg_copies must be >= 1 (every video needs a replica), "
                f"got {self.avg_copies}"
            )

    @property
    def n_servers(self) -> int:
        return len(self.server_bandwidths)

    @property
    def total_bandwidth(self) -> float:
        """Cluster egress capacity, Mb/s."""
        return float(sum(self.server_bandwidths))

    @property
    def total_storage(self) -> float:
        """Cluster storage, Mb."""
        return float(sum(self.disk_capacities))

    @property
    def total_copies(self) -> int:
        """Replica budget implied by ``avg_copies``."""
        return int(round(self.avg_copies * self.n_videos))

    @property
    def svbr(self) -> float:
        """Mean server-to-view bandwidth ratio (streams per server)."""
        return self.total_bandwidth / (self.n_servers * self.view_bandwidth)

    def build_servers(
        self, profile: Optional[ClusterProfile] = None
    ) -> List[DataServer]:
        """Instantiate fresh :class:`DataServer` objects for a run.

        With a *profile* (a calibration pass's output, see
        :mod:`repro.cluster.profile`) each server adopts its measured
        capacities; without one the presets stand unmodified.
        """
        servers = [
            DataServer(i, bw, disk)
            for i, (bw, disk) in enumerate(
                zip(self.server_bandwidths, self.disk_capacities)
            )
        ]
        if profile is not None:
            if len(profile.profiles) != len(servers):
                raise ValueError(
                    f"profile covers {len(profile.profiles)} servers, "
                    f"system has {len(servers)}"
                )
            for server, server_profile in zip(servers, profile.profiles):
                server.apply_profile(server_profile)
        return servers

    def scaled(self, n_videos: int = 0, name: str = "") -> "SystemConfig":
        """Copy with an overridden catalog size (for quick experiments)."""
        return replace(
            self,
            n_videos=n_videos or self.n_videos,
            name=name or self.name,
        )

    def to_dict(self) -> dict:
        """JSON-compatible dict; round-trips via :meth:`from_dict`."""
        from repro.serialize import shallow_dict

        return shallow_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Build from a dict, or resolve a ``{"preset": name}`` shorthand.

        Scenario files may name a registered preset instead of spelling
        out every server (``{"preset": "small"}``); any further keys
        then override the preset's fields.  Unknown keys raise an
        actionable error.
        """
        from repro.serialize import check_fields

        check_fields(cls, data, extra=("preset",))
        data = dict(data)
        preset_name = data.pop("preset", None)
        for key in ("server_bandwidths", "disk_capacities", "video_length_range"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        if preset_name is not None:
            preset = SYSTEMS.get(preset_name)
            return replace(preset, **data) if data else preset
        return cls(**data)


def homogeneous(
    name: str,
    n_servers: int,
    bandwidth: float,
    disk_capacity_gb: float,
    n_videos: int,
    video_length_range: Tuple[float, float],
    avg_copies: float = 2.2,
    **kwargs,
) -> SystemConfig:
    """Build a homogeneous :class:`SystemConfig` (Figure 3 style)."""
    return SystemConfig(
        name=name,
        server_bandwidths=tuple([float(bandwidth)] * n_servers),
        disk_capacities=tuple([gb_to_mb(disk_capacity_gb)] * n_servers),
        n_videos=n_videos,
        video_length_range=video_length_range,
        avg_copies=avg_copies,
        **kwargs,
    )


#: Figure 3, "Small": short clips, low SVBR (33 streams/server).
SMALL_SYSTEM: SystemConfig = homogeneous(
    name="small",
    n_servers=5,
    bandwidth=100.0,
    disk_capacity_gb=100.0,
    n_videos=300,
    video_length_range=(minutes(10), minutes(30)),
)

#: Figure 3, "Large": feature-length movies, high SVBR (100 streams/server).
LARGE_SYSTEM: SystemConfig = homogeneous(
    name="large",
    n_servers=20,
    bandwidth=300.0,
    disk_capacity_gb=50.0,
    n_videos=200,
    video_length_range=(minutes(60), minutes(120)),
)

#: Named system presets (scenario files and the CLI's ``--system`` flag
#: resolve through this); unknown names raise an actionable error.
SYSTEMS: Registry[SystemConfig] = Registry("system")
SYSTEMS.register(
    "small", SMALL_SYSTEM,
    help="Figure 3 'Small': 5 servers x 100 Mb/s, 10-30 min clips "
         "(SVBR 33)",
)
SYSTEMS.register(
    "large", LARGE_SYSTEM,
    help="Figure 3 'Large': 20 servers x 300 Mb/s, 1-2 h movies "
         "(SVBR 100)",
)


def figure3_table() -> str:
    """Figure 3 as an ASCII table, read off the two presets."""
    rows = {
        "Number of Servers": lambda s: s.n_servers,
        "Bandwidth (Mb/s)": lambda s: s.server_bandwidths[0],
        "Video Length (min)": lambda s: "{:.0f}-{:.0f}".format(
            *(length / 60 for length in s.video_length_range)
        ),
        "Number of Videos": lambda s: s.n_videos,
        "Avg Copies Per Video": lambda s: s.avg_copies,
        "Disk Capacity (GB)": lambda s: mb_to_gb(s.disk_capacities[0]),
        "View Bandwidth (Mb/s)": lambda s: s.view_bandwidth,
        "SVBR (streams/server)": lambda s: round(s.svbr, 1),
    }
    return render_table(
        ["Parameter", "Small", "Large"],
        [[label, get(SMALL_SYSTEM), get(LARGE_SYSTEM)]
         for label, get in rows.items()],
        precision=1,
        title="Figure 3: parameters for the two video servers studied",
    )


def _spread(total: float, n: int, spread: float, rng: np.random.Generator) -> Tuple[float, ...]:
    """Split *total* into n parts with relative spread in [1-s, 1+s].

    Weights are uniform in [1-s, 1+s] and renormalised, so the total is
    exactly preserved — heterogeneous systems stay capacity-matched with
    their homogeneous counterparts.
    """
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"spread must be in [0, 1), got {spread}")
    weights = rng.uniform(1.0 - spread, 1.0 + spread, size=n)
    weights /= weights.sum()
    return tuple(float(total * w) for w in weights)


def heterogeneous_bandwidth(
    base: SystemConfig,
    spread: float,
    rng: np.random.Generator,
    name: str = "",
) -> SystemConfig:
    """Variant of *base* with unevenly distributed link capacity.

    Total cluster bandwidth is preserved; individual servers get between
    ``(1-spread)`` and ``(1+spread)`` of the mean (before renormalising).
    """
    bandwidths = _spread(base.total_bandwidth, base.n_servers, spread, rng)
    return replace(
        base,
        name=name or f"{base.name}-hetbw{spread:g}",
        server_bandwidths=bandwidths,
    )


def heterogeneous_storage(
    base: SystemConfig,
    spread: float,
    rng: np.random.Generator,
    name: str = "",
) -> SystemConfig:
    """Variant of *base* with unevenly distributed disk capacity."""
    disks = _spread(base.total_storage, base.n_servers, spread, rng)
    return replace(
        base,
        name=name or f"{base.name}-hetdisk{spread:g}",
        disk_capacities=disks,
    )


def sized_system(
    n_servers: int,
    base: SystemConfig = SMALL_SYSTEM,
    name: str = "",
) -> SystemConfig:
    """A *base*-like system with a different server count (Section 4.6
    studies 5/10/20-server classes).  Catalog scales proportionally so
    copies still fit."""
    scale = n_servers / base.n_servers
    return replace(
        base,
        name=name or f"{base.name}-x{n_servers}",
        server_bandwidths=tuple([base.server_bandwidths[0]] * n_servers),
        disk_capacities=tuple([base.disk_capacities[0]] * n_servers),
        n_videos=max(1, int(round(base.n_videos * scale))),
    )
