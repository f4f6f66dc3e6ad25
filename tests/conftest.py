"""Shared fixtures and builders for the test suite.

Most core tests want a *micro-cluster*: a couple of hand-built servers,
a tiny catalog and direct access to the transmission managers, so that
every admission/migration/scheduling decision is inspectable without a
workload generator in the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.client import ClientProfile
from repro.cluster.request import Request
from repro.cluster.server import DataServer
from repro.core.admission import AdmissionController
from repro.core.migration import MigrationPolicy
from repro.core.schedulers import ALLOCATORS, BandwidthAllocator
from repro.core.transmission import TransmissionManager
from repro.placement.base import PlacementMap
from repro.sim.engine import Engine
from repro.workload.catalog import Video, VideoCatalog


def make_video(
    video_id: int = 0, length: float = 100.0, view_bandwidth: float = 1.0
) -> Video:
    """A small video: defaults to 100 s at 1 Mb/s = 100 Mb."""
    return Video(video_id=video_id, length=length, view_bandwidth=view_bandwidth)


def make_client(
    buffer_capacity: float = 0.0, receive_bandwidth: float = math.inf
) -> ClientProfile:
    return ClientProfile(
        buffer_capacity=buffer_capacity, receive_bandwidth=receive_bandwidth
    )


def make_request(
    video: Optional[Video] = None,
    client: Optional[ClientProfile] = None,
    arrival_time: float = 0.0,
) -> Request:
    return Request(
        video=video if video is not None else make_video(),
        client=client if client is not None else make_client(),
        arrival_time=arrival_time,
    )


def rates_of(
    allocator: BandwidthAllocator,
    server: DataServer,
    requests: Sequence[Request],
    now: float,
) -> Dict[int, float]:
    """Run *allocator*'s pass and read back ``{request_id: rate}``."""
    allocator.allocate_into(server, requests, now)
    return {r.request_id: r.rate for r in requests}


@dataclass
class MicroCluster:
    """A hand-wired cluster for direct core-layer tests.

    Attributes mirror what :class:`DistributionController` builds, but
    everything is reachable and the placement map is explicit.
    """

    engine: Engine
    servers: Dict[int, DataServer]
    managers: Dict[int, TransmissionManager]
    placement: PlacementMap
    metrics: SimulationMetrics
    admission: AdmissionController
    catalog: VideoCatalog
    finished: List[Request] = field(default_factory=list)

    def submit(
        self,
        video_id: int,
        client: Optional[ClientProfile] = None,
    ) -> Tuple[Request, "object"]:
        """Create and submit one request; returns (request, outcome)."""
        request = Request(
            video=self.catalog[video_id],
            client=client if client is not None else make_client(),
            arrival_time=self.engine.now,
        )
        outcome = self.admission.submit(request, self.engine.now)
        return request, outcome


def build_micro_cluster(
    server_specs: Sequence[Tuple[float, float]],
    videos: Sequence[Video],
    holders: Dict[int, Sequence[int]],
    allocator: str = "eftf",
    migration: Optional[MigrationPolicy] = None,
) -> MicroCluster:
    """Wire a cluster by hand.

    Args:
        server_specs: per server (bandwidth Mb/s, disk capacity Mb).
        videos: the catalog entries (ids must be 0..n-1 in order).
        holders: video id → server ids that hold a replica.
        allocator: scheduler registry key.
        migration: DRM policy (disabled by default).
    """
    engine = Engine()
    metrics = SimulationMetrics()
    servers = {
        i: DataServer(i, bandwidth=bw, disk_capacity=disk)
        for i, (bw, disk) in enumerate(server_specs)
    }
    catalog = VideoCatalog(videos=tuple(videos))
    for vid, server_ids in holders.items():
        for sid in server_ids:
            servers[sid].store_replica(catalog[vid])
    placement = PlacementMap(
        {vid: tuple(sids) for vid, sids in holders.items()}
    )
    alloc: BandwidthAllocator = ALLOCATORS[allocator]()
    cluster_finished: List[Request] = []
    managers = {
        sid: TransmissionManager(
            engine,
            server,
            alloc,
            metrics,
            on_finish=cluster_finished.append,
        )
        for sid, server in servers.items()
    }
    admission = AdmissionController(
        servers,
        managers,
        placement,
        migration if migration is not None else MigrationPolicy.disabled(),
        metrics,
    )
    return MicroCluster(
        engine=engine,
        servers=servers,
        managers=managers,
        placement=placement,
        metrics=metrics,
        admission=admission,
        catalog=catalog,
        finished=cluster_finished,
    )


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
