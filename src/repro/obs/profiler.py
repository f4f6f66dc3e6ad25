"""Wall-clock profiling of engine events, grouped by event kind.

The engine calls :meth:`EventProfiler.record` around each event's
callback *only when a profiler is attached* (one ``is None`` check per
event otherwise — measured < 1 % of the per-event cost).  Kinds are
grouped by their prefix up to the first ``:`` so the per-server tags
(``tx-boundary:srv7``) aggregate into one row.

A module-level aggregate lets multi-trial sweeps (forced to a single
worker while profiling — see ``repro.experiments.base``) accumulate one
report across runs; the CLI prints and clears it on exit::

    REPRO_PROFILE=1 repro-vod fig5 --system small --scale 0.002
    # ... per-kind wall-clock table on stderr after the sweep
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple


class ProfileReport:
    """Immutable-ish summary of one or more profiled runs."""

    def __init__(
        self,
        by_kind: Dict[str, Tuple[int, float]],
        wall_seconds: float,
        events: int,
    ) -> None:
        #: kind-group -> (event count, wall-clock seconds in callbacks)
        self.by_kind = by_kind
        self.wall_seconds = wall_seconds
        self.events = events

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def render(self) -> str:
        """ASCII table: per-kind wall clock, share, and throughput."""
        rows = sorted(
            self.by_kind.items(), key=lambda kv: kv[1][1], reverse=True
        )
        callback_total = sum(sec for _n, sec in self.by_kind.values()) or 1e-12
        width = max([len(k) for k, _ in rows] + [len("event kind")])
        lines = [
            f"{'event kind':<{width}}  {'events':>10}  {'seconds':>9}  "
            f"{'share':>6}  {'us/event':>9}",
            f"{'-' * width}  {'-' * 10}  {'-' * 9}  {'-' * 6}  {'-' * 9}",
        ]
        for kind, (count, seconds) in rows:
            per_event = seconds / count * 1e6 if count else 0.0
            lines.append(
                f"{kind:<{width}}  {count:>10}  {seconds:>9.3f}  "
                f"{seconds / callback_total:>6.1%}  {per_event:>9.2f}"
            )
        lines.append(
            f"total: {self.events} events in {self.wall_seconds:.3f}s wall "
            f"({self.events_per_second:,.0f} events/sec)"
        )
        return "\n".join(lines)


class EventProfiler:
    """Accumulates per-kind wall-clock spent in event callbacks.

    Attach/detach to an :class:`~repro.sim.engine.Engine`; the engine
    fast path stays a single attribute check when no profiler is set.
    """

    def __init__(self) -> None:
        self._by_kind: Dict[str, List[float]] = {}
        self._events = 0
        self._wall = 0.0
        self._started_at: Optional[float] = None
        self._engine = None

    # ------------------------------------------------------------------
    # Engine lifecycle
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        """Install on *engine* and start the wall clock."""
        if engine.profiler is not None and engine.profiler is not self:
            raise RuntimeError("engine already has a profiler attached")
        engine.profiler = self
        self._engine = engine
        self._started_at = perf_counter()

    def detach(self) -> None:
        """Stop the wall clock and release the engine."""
        if self._started_at is not None:
            self._wall += perf_counter() - self._started_at
            self._started_at = None
        if self._engine is not None:
            if self._engine.profiler is self:
                self._engine.profiler = None
            self._engine = None

    # ------------------------------------------------------------------
    # Hot path (called by Engine.step)
    # ------------------------------------------------------------------
    def record(self, kind: str, seconds: float) -> None:
        """Account *seconds* of callback time to *kind*'s prefix group."""
        group = kind.partition(":")[0] or "<untagged>"
        cell = self._by_kind.get(group)
        if cell is None:
            cell = self._by_kind[group] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds
        self._events += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ProfileReport:
        wall = self._wall
        if self._started_at is not None:  # still attached: include so far
            wall += perf_counter() - self._started_at
        return ProfileReport(
            {k: (int(n), s) for k, (n, s) in self._by_kind.items()},
            wall_seconds=wall,
            events=self._events,
        )

    def merge_into(self, other: "EventProfiler") -> None:
        """Fold this profiler's accounting into *other* (aggregation)."""
        for kind, (n, sec) in self._by_kind.items():
            cell = other._by_kind.get(kind)
            if cell is None:
                cell = other._by_kind[kind] = [0, 0.0]
            cell[0] += n
            cell[1] += sec
        other._events += self._events
        report = self.report()
        other._wall += report.wall_seconds


# ----------------------------------------------------------------------
# Process-wide aggregate (used by the CLI's --profile flag)
# ----------------------------------------------------------------------
_AGGREGATE = EventProfiler()


def aggregate(profiler: EventProfiler) -> None:
    """Fold *profiler* into the process-wide aggregate."""
    profiler.merge_into(_AGGREGATE)


def aggregate_report() -> ProfileReport:
    """The process-wide report."""
    return _AGGREGATE.report()


def reset_aggregate() -> None:
    global _AGGREGATE
    _AGGREGATE = EventProfiler()
