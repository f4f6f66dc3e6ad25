"""Declarative fault plans: *what* chaos to inject, not *when*.

A :class:`FaultPlan` is a frozen value object — the injector turns it
into concrete engine events using the run's seeded RNG substreams, so
the plan itself carries no randomness and hashes stably into the run's
provenance (``config_hash`` uses ``repr``).

All times are simulated seconds; all processes are memoryless
(exponential inter-event times), the standard MTBF/MTTR availability
model — stationary, and trivially reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serialize import Config


@dataclass(frozen=True)
class CrashFaults(Config):
    """Whole-node crash/repair cycling.

    Attributes:
        mtbf: mean time between failures per seed server, seconds
            (measured from the previous repair — an alternating renewal
            process, so a server is up ``mtbf/(mtbf+mttr)`` of the time).
        mttr: mean time to repair, seconds.
        correlation: probability that each *other* member (joiners
            included, departed servers not) is dragged down by a crash
            (correlated failures: shared rack, shared power).  0 keeps
            crashes independent.
    """

    mtbf: float
    mttr: float
    correlation: float = 0.0

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError(f"crash mtbf must be positive, got {self.mtbf}")
        if self.mttr <= 0:
            raise ValueError(f"crash mttr must be positive, got {self.mttr}")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError(
                f"correlation must be in [0, 1], got {self.correlation}"
            )


@dataclass(frozen=True)
class LinkFaults(Config):
    """Partial outbound-link degradation (brownout, not blackout).

    Attributes:
        mtbf: mean time between degradations per seed server.
        mttr: mean degradation duration.

    The surviving capacity fraction is drawn uniformly from
    :data:`repro.faults.injector.LINK_FACTOR_RANGE`.
    """

    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError(f"link mtbf must be positive, got {self.mtbf}")
        if self.mttr <= 0:
            raise ValueError(f"link mttr must be positive, got {self.mttr}")


@dataclass(frozen=True)
class ReplicaFaults(Config):
    """On-disk replica destruction (bad sector, not a node outage).

    Attributes:
        mean_interval: cluster-wide mean seconds between loss events,
            each on a uniformly drawn member (departed servers not).
    """

    mean_interval: float

    def __post_init__(self) -> None:
        if self.mean_interval <= 0:
            raise ValueError(
                f"replica mean_interval must be positive, "
                f"got {self.mean_interval}"
            )


@dataclass(frozen=True)
class FaultPlan(Config):
    """The full chaos schedule for one run.

    Any subset of fault classes may be active; ``start`` delays all
    injection (typically set to the measurement warmup so the system
    reaches steady state before faults begin).
    """

    crash: Optional[CrashFaults] = None
    link: Optional[LinkFaults] = None
    replica: Optional[ReplicaFaults] = None
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")

    @property
    def empty(self) -> bool:
        """True when no fault class is configured."""
        return self.crash is None and self.link is None and self.replica is None
