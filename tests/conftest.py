"""Shared fixtures and builders for the test suite.

Most core tests want a *micro-cluster*: a couple of hand-built servers,
a tiny catalog and direct access to the transmission managers, so that
every admission/migration/scheduling decision is inspectable without a
workload generator in the way.

The live tests run their gateways and load generators on the *loop
clock* (:class:`LoopClock`, through :func:`run` or :func:`loop_clock`):
every wait in ``repro.serve`` reads ``loop.time()``, so a loop whose
clock skips over its idle waits serves the same virtual-time schedule
without sitting on the wall.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import gc
import itertools
import math
import selectors
import threading
import time
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
from repro.sim.events import EventState
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


#: Ids for hand-built requests (a simulation numbers its own): unique
#: across the session, as a server's active set and the allocator's rate
#: maps key streams by id.
REQUEST_IDS = itertools.count()


def make_request(
    video: Optional[Video] = None,
    client: Optional[ClientProfile] = None,
    arrival_time: float = 0.0,
) -> Request:
    return Request(
        video=video if video is not None else make_video(),
        client=client if client is not None else make_client(),
        arrival_time=arrival_time,
        request_id=next(REQUEST_IDS),
    )


@contextlib.contextmanager
def scratch_registry(registry):
    """Let a test register into *registry*; every entry it adds is gone
    afterwards (the mapping itself is patched and restored)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "_entries", dict(registry._entries))
        patch.setattr(registry, "_help", dict(registry._help))
        yield registry


#: Real seconds an idle loop-clock poll waits for I/O before it skips
#: the clock to the next due timer.
REAL_POLL = 0.0005


class _SkippingSelector(selectors.DefaultSelector):
    """Never sleeps for a timer: it polls at most :data:`REAL_POLL`
    seconds for real, and when no I/O got ready in that time it adds
    the timeout to :attr:`offset`.  Ready I/O is always served before
    the clock moves, so no time is skipped while a socket has data."""

    #: Seconds skipped so far, added to ``time.monotonic()``.
    offset = 0.0

    def select(self, timeout=None):
        if timeout is None:  # no timer: only I/O can wake the loop
            return super().select(None)
        ready = super().select(min(timeout, REAL_POLL))
        if not ready:
            self.offset += timeout
        return ready


class LoopClock(asyncio.SelectorEventLoop):
    """An event loop whose ``time()`` is ``monotonic()`` plus the
    offset its selector has skipped: an idle wait for a timer costs
    :data:`REAL_POLL` of wall time, whatever its length.  Only for
    loops whose peers all share the loop: a peer in another thread or
    process sees the clock jump."""

    def __init__(self) -> None:
        # Kept here too: a closed loop drops its selector, and a
        # gateway's summary still reads the clock.
        self._skips = _SkippingSelector()
        super().__init__(self._skips)

    def time(self) -> float:
        return time.monotonic() + self._skips.offset


class _LoopClockPolicy(asyncio.DefaultEventLoopPolicy):
    """A :class:`LoopClock` for the main thread; any other thread (a
    ``run_in_executor`` peer running ``repro ops``) keeps a wall loop."""

    def new_event_loop(self) -> asyncio.AbstractEventLoop:
        if threading.current_thread() is threading.main_thread():
            return LoopClock()
        return super().new_event_loop()


@contextlib.contextmanager
def loop_clock():
    """Every loop ``asyncio.run`` makes in the main thread while the
    block runs is a :class:`LoopClock` (``repro verify``'s live leg)."""
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_LoopClockPolicy())
    try:
        yield
    finally:
        asyncio.set_event_loop_policy(previous)


def run(coro):
    """Run *coro* to completion on a fresh :class:`LoopClock` (the live
    tests stay plain functions)."""
    with loop_clock():
        return asyncio.run(coro)


async def loopback_pair():
    """A real TCP loopback (reader, writer) pair plus the peer side,
    and the listener that accepted it."""
    accepted = asyncio.get_running_loop().create_future()

    async def _on_connect(reader, writer):
        if not accepted.done():
            accepted.set_result((reader, writer))

    server = await asyncio.start_server(_on_connect, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    client_reader, client_writer = await asyncio.open_connection(
        "127.0.0.1", port
    )
    peer_reader, peer_writer = await accepted
    return server, (client_reader, client_writer), (peer_reader, peer_writer)


async def teardown(server, *writers):
    """Close *writers*, then the listener of :func:`loopback_pair`."""
    for writer in writers:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    server.close()
    await server.wait_closed()


def left_to_gc() -> Dict[str, int]:
    """Run the cyclic collector and return the ``repro`` objects it
    freed, counted by type name: empty when reference counting alone
    freed everything dropped since the last call (under
    :func:`cyclic_gc_off`)."""
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return dict(collections.Counter(
            type(obj).__qualname__ for obj in gc.garbage
            if (type(obj).__module__ or "").partition(".")[0] == "repro"
        ))
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.collect()  # what was saved for counting, freed for real


@contextlib.contextmanager
def cyclic_gc_off():
    """Automatic cyclic collection off while the block runs, from a
    clean slate, so that :func:`left_to_gc` sees what the block left."""
    enabled = gc.isenabled()
    gc.disable()
    left_to_gc()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def placed_copies(placement: PlacementMap) -> int:
    """Replicas placed, summed over every video."""
    return sum(len(holders) for holders in placement._holders.values())


def is_pending(event) -> bool:
    """True while *event* is scheduled and neither fired nor cancelled."""
    return event._state is EventState.PENDING


def live_events(engine: Engine) -> list:
    """The engine agenda's pending handles (heap order)."""
    return [entry[2] for entry in engine._heap if is_pending(entry[2])]


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
            request_id=next(REQUEST_IDS),
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
