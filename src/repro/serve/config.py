"""Runtime knobs of the live serving layer.

:class:`ServeConfig` is everything *wall-clock* about a live run — how
virtual time maps onto real time, the parity contract's safety margins
and the supervisor's budget.  Everything *policy* about a run stays in
:class:`repro.simulation.SimulationConfig` (the scenario file): the same
committed scenario can be simulated or served live, and the decisions
must not depend on which (the parity contract, docs/SERVING.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.serialize import Config


@dataclass(frozen=True)
class ServeConfig(Config):
    """Wall-clock parameters of the gateway and load generator.

    Attributes:
        host: bind/connect address.
        port: TCP port; 0 binds an ephemeral port (tests).
        compression: virtual seconds per wall second.  At 40x a
            75-virtual-second clip streams in under two wall seconds.
        guard: how far (wall seconds) the pacer's engine advance lags
            the wall clock.  Arrivals announce themselves within this
            window, so the policy engine never advances past an
            arrival's virtual time — the parity contract's safety
            margin.  Must exceed :attr:`reorder_window`.
        startup_slack: wall seconds between anchoring the virtual clock
            (first arrival) and that arrival's due time.
        ops_port: TCP port of the gateway's ops (telemetry) listener;
            0 binds an ephemeral port, ``None`` disables the endpoint
            entirely (docs/SERVING.md, "ops endpoint").
        heartbeat_timeout: wall seconds a supervised gateway loop may
            go without a heartbeat before the supervisor trips it
            (postmortem + restart); 0 disables deadline monitoring.
            Only loops that beat are monitored.
        task_restart_limit: restarts the supervisor grants one gateway
            task before declaring it fatally dead (the restart budget
            of restart-with-drain; docs/ROBUSTNESS.md, live chaos).

    Constants (class attributes, not fields; wall seconds unless noted):
        tick: 0.05, the pacing quantum — each server task wakes every
            *tick* to refill its sessions' credit and push chunks.
        reorder_window: 0.1, how long an arrival is buffered before
            admission so that near-simultaneous requests from separate
            connections are processed in virtual-time order.
        bytes_per_megabit: 64 real payload bytes stand in for one
            megabit of video data.
        handshake_timeout: 10.0, how long a new connection may take to
            send its ``request`` frame before being dropped (and a
            client waits for each frame).
        send_timeout: 5.0, the per-frame drain bound.
        send_retries: 3 bounded retries of a timed-out chunk drain
            before the session is declared dead.
        drain_timeout: 15.0, how long :meth:`ClusterGateway.drain`
            waits for in-flight sessions before force-closing them.
        retry_margin: 1.0 of virtual-time headroom (converted via
            *compression*) a resilient client adds to every re-request
            timestamp, so the retried arrival lands ahead of the policy
            clock's guard window and never forces a parity clamp.  Must
            exceed ``guard + reorder_window``.
        stats_interval: 1.0 between ``serve.stats`` trace samples (the
            flight recorder's and ``repro top --trace``'s time series)
            when a tracer is attached.
        progress_interval: 2.0 between the load generator's one-line
            progress reports, when a progress callback is given.
    """

    host: str = "127.0.0.1"
    port: int = 0
    compression: float = 40.0
    guard: float = 0.25
    startup_slack: float = 0.3
    ops_port: Optional[int] = 0
    heartbeat_timeout: float = 0.0
    task_restart_limit: int = 3

    tick: ClassVar[float] = 0.05
    reorder_window: ClassVar[float] = 0.1
    bytes_per_megabit: ClassVar[int] = 64
    handshake_timeout: ClassVar[float] = 10.0
    send_timeout: ClassVar[float] = 5.0
    send_retries: ClassVar[int] = 3
    drain_timeout: ClassVar[float] = 15.0
    retry_margin: ClassVar[float] = 1.0
    stats_interval: ClassVar[float] = 1.0
    progress_interval: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.compression < math.inf:
            raise ValueError(
                f"compression must be positive and finite, "
                f"got {self.compression}"
            )
        for name in ("startup_slack", "heartbeat_timeout",
                     "task_restart_limit"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.guard <= self.reorder_window:
            raise ValueError(
                f"guard ({self.guard}) must exceed reorder_window "
                f"({self.reorder_window}): the pacer may otherwise advance "
                f"the policy engine past a buffered arrival"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be a TCP port, got {self.port}")
        if self.ops_port is not None and not (0 <= self.ops_port <= 65535):
            raise ValueError(
                f"ops_port must be a TCP port or None (disabled), "
                f"got {self.ops_port}"
            )
        if self.retry_margin <= self.guard + self.reorder_window:
            raise ValueError(
                f"retry_margin ({self.retry_margin}) must exceed guard + "
                f"reorder_window ({self.guard + self.reorder_window}): a "
                f"re-request stamped closer than that can land behind the "
                f"policy clock and force a parity clamp"
            )

    # -- virtual <-> wall conversions ----------------------------------
    def to_virtual(self, wall_seconds: float) -> float:
        """Wall duration -> virtual duration."""
        return wall_seconds * self.compression

    def to_wall(self, virtual_seconds: float) -> float:
        """Virtual duration -> wall duration."""
        return virtual_seconds / self.compression
