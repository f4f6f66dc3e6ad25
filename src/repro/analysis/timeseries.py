"""Time-series instrumentation: sampled cluster state over a run.

The paper reports scalar per-run measurements; operationally one also
wants the *trajectory* — active streams, instantaneous utilization,
client buffer levels — e.g. to see a failover dip and recovery, or a
flash crowd being absorbed.  :class:`StateSampler` takes periodic
snapshots on the engine's clock and exposes them as numpy arrays.

Instantaneous link utilization is the sum of current transmission
rates over cluster capacity — distinct from Section 4.1's cumulative
utilization (bytes over capacity×time), which remains the headline
metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.controller import DistributionController
from repro.sim.engine import Engine
from repro.sim.process import PeriodicTimer


@dataclass
class Snapshot:
    """One sampled instant of cluster state."""

    time: float
    active_streams: int
    instantaneous_rate: float       #: Σ current rates, Mb/s
    reserved_bandwidth: float       #: Σ minimum-flow floors, Mb/s
    mean_buffer: float              #: mean client buffer occupancy, Mb
    paused_streams: int             #: VCR-paused viewers
    per_server_active: Dict[int, int] = field(default_factory=dict)


class TimeSeries:
    """An ordered collection of :class:`Snapshot` with array views."""

    def __init__(self) -> None:
        self.snapshots: List[Snapshot] = []

    def append(self, snap: Snapshot) -> None:
        self.snapshots.append(snap)

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def active_streams(self) -> np.ndarray:
        return np.array([s.active_streams for s in self.snapshots])

    @property
    def instantaneous_utilization(self) -> np.ndarray:
        """Needs the cluster capacity; see :meth:`utilization_series`."""
        return np.array([s.instantaneous_rate for s in self.snapshots])

    def utilization_series(self, total_bandwidth: float) -> np.ndarray:
        if total_bandwidth <= 0:
            raise ValueError(
                f"total bandwidth must be positive, got {total_bandwidth}"
            )
        return self.instantaneous_utilization / total_bandwidth

    @property
    def mean_buffers(self) -> np.ndarray:
        return np.array([s.mean_buffer for s in self.snapshots])

    @property
    def paused_streams(self) -> np.ndarray:
        return np.array([s.paused_streams for s in self.snapshots])

    def window(self, start: float, end: float) -> "TimeSeries":
        """Snapshots with ``start <= time < end``."""
        out = TimeSeries()
        for s in self.snapshots:
            if start <= s.time < end:
                out.append(s)
        return out


class StateSampler:
    """Periodically snapshot a controller's cluster state.

    Args:
        engine: the simulation engine.
        controller: the cluster under observation.
        interval: sampling period, seconds.
        start: first sample time (defaults to one interval from now).
    """

    def __init__(
        self,
        engine: Engine,
        controller: DistributionController,
        interval: float,
        start: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.controller = controller
        self.series = TimeSeries()
        self._timer = PeriodicTimer(
            engine, interval, self._sample, first=start, name="state-sampler"
        )

    def _sample(self) -> None:
        now = self.engine.now
        active = 0
        rate_sum = 0.0
        reserved = 0.0
        buffers: List[float] = []
        paused = 0
        per_server: Dict[int, int] = {}
        for server in self.controller.servers.values():
            per_server[server.server_id] = server.active_count
            active += server.active_count
            reserved += server.reserved_bandwidth
            for r in server.iter_active():
                rate_sum += r.rate
                # State may be lazily integrated; project to now.
                sent = r.sent_at(now)
                played_until = min(now, r.playback_pause_time)
                viewed = (played_until - r.playback_start) * r.view_bandwidth
                buffers.append(max(0.0, sent - viewed))
                if r.playback_pause_time <= now:
                    paused += 1
        self.series.append(
            Snapshot(
                time=now,
                active_streams=active,
                instantaneous_rate=rate_sum,
                reserved_bandwidth=reserved,
                mean_buffer=float(np.mean(buffers)) if buffers else 0.0,
                paused_streams=paused,
                per_server_active=per_server,
            )
        )

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        self._timer.stop()
