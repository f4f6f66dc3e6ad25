"""Runtime knobs of the live serving layer.

:class:`ServeConfig` is everything *wall-clock* about a live run — how
virtual time maps onto real time, how often pacing ticks fire, the
robustness bounds (timeouts, retries, drain deadline).  Everything
*policy* about a run stays in :class:`repro.simulation.SimulationConfig`
(the scenario file): the same committed scenario can be simulated or
served live, and the decisions must not depend on which (the parity
contract, docs/SERVING.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serialize import check_fields, shallow_dict


@dataclass(frozen=True)
class ServeConfig:
    """Wall-clock parameters of the gateway and load generator.

    Attributes:
        host: bind/connect address.
        port: TCP port; 0 binds an ephemeral port (tests).
        compression: virtual seconds per wall second.  At 40x a
            75-virtual-second clip streams in under two wall seconds.
        tick: pacing quantum, wall seconds — each server task wakes
            every *tick* to refill token buckets and push chunks.
        guard: how far (wall seconds) the pacer's engine advance lags
            the wall clock.  Arrivals announce themselves within this
            window, so the policy engine never advances past an
            arrival's virtual time — the parity contract's safety
            margin.  Must exceed *reorder_window*.
        reorder_window: wall seconds an arrival is buffered before
            admission so that near-simultaneous requests from separate
            connections are processed in virtual-time order.
        startup_slack: wall seconds between anchoring the virtual clock
            (first arrival) and that arrival's due time.
        bytes_per_megabit: payload scaling — how many real payload
            bytes stand in for one megabit of video data.
        handshake_timeout: wall seconds a new connection may take to
            send its ``request`` frame before being dropped.
        send_timeout: per-frame drain bound, wall seconds.
        send_retries: bounded retries for a timed-out chunk send before
            the session is declared dead (transient-failure budget).
        drain_timeout: wall seconds :meth:`ClusterGateway.drain` waits
            for in-flight sessions before force-closing them.
        ops_port: TCP port of the gateway's ops (telemetry) listener;
            0 binds an ephemeral port, ``None`` disables the endpoint
            entirely (docs/SERVING.md, "ops endpoint").
        stats_interval: wall seconds between ``serve.stats`` trace
            samples (the flight recorder's and ``repro top --trace``'s
            time series) when a tracer is attached.
        progress_interval: wall seconds between the load generator's
            one-line progress reports (stderr); only used when a
            progress callback is given.
        heartbeat_timeout: wall seconds a supervised gateway loop may
            go without a heartbeat before the supervisor trips it
            (postmortem + restart); 0 disables deadline monitoring.
            Only loops that beat are monitored.
        task_restart_limit: restarts the supervisor grants one gateway
            task before declaring it fatally dead (the restart budget
            of restart-with-drain; docs/ROBUSTNESS.md, live chaos).
        retry_margin: wall seconds of virtual-time headroom a resilient
            client adds to every re-request timestamp (converted via
            *compression*), so the retried arrival lands ahead of the
            policy clock's guard window and never forces a parity
            clamp.  Must exceed ``guard + reorder_window``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    compression: float = 40.0
    tick: float = 0.05
    guard: float = 0.25
    reorder_window: float = 0.1
    startup_slack: float = 0.3
    bytes_per_megabit: int = 64
    handshake_timeout: float = 10.0
    send_timeout: float = 5.0
    send_retries: int = 3
    drain_timeout: float = 15.0
    ops_port: Optional[int] = 0
    stats_interval: float = 1.0
    progress_interval: float = 2.0
    heartbeat_timeout: float = 0.0
    task_restart_limit: int = 3
    retry_margin: float = 1.0

    def __post_init__(self) -> None:
        for name in ("compression", "tick", "handshake_timeout",
                     "send_timeout", "drain_timeout", "stats_interval",
                     "progress_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("reorder_window", "startup_slack", "send_retries",
                     "heartbeat_timeout", "task_restart_limit"):
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
        if self.bytes_per_megabit < 1:
            raise ValueError(
                f"bytes_per_megabit must be >= 1, got {self.bytes_per_megabit}"
            )
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

    def to_dict(self) -> dict:
        """JSON-compatible dict; round-trips via :meth:`from_dict`."""
        return shallow_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        """Build from a (possibly partial) dict; unknown keys raise."""
        check_fields(cls, data)
        return cls(**data)
