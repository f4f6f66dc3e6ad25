"""Named metrics: counters, gauges and histograms with one snapshot API.

:class:`repro.analysis.metrics.SimulationMetrics` *is read by* its
:class:`MetricsRegistry` rather than being replaced by it: the
dataclass fields stay the only copy of the paper's Section 4.1
counts, and the registry's run counters are supplied counters that read
them when a snapshot is taken.  Beside them the registry carries the
open-ended set — DRM chain-length distribution, buffer-occupancy-at-finish
histogram, live-stream gauges — that downstream tooling reads via
:meth:`MetricsRegistry.snapshot`.

Instruments are get-or-create by name, so independent subsystems can
share one registry without coordination; an event path binds its
instrument once rather than looking it up per event::

    reg = MetricsRegistry()
    admits = reg.counter("serve.admits")      # bound once ...
    admits.inc()                              # ... incremented per event
    reg.counter("requests.accepted", supplier=lambda: metrics.accepted)
    reg.histogram("drm.chain_length").observe(2)
    reg.gauge("streams.active", supplier=lambda: controller.active_count)
    reg.snapshot()                    # -> plain nested dict, JSON-ready

A supplier of a simulation's registry reads its owner *weakly*
(``weakref.proxy``): the owner holds the registry, so a strong read
would make every run a reference cycle (docs/PERFORMANCE.md, "A
finished run frees itself").  Such a registry is read while its owner
lives; once the owner is gone, :meth:`MetricsRegistry.snapshot` (and so
the Prometheus text) raises a ``RuntimeError`` naming the instrument
rather than reporting a stale or zero value::

    owner = weakref.proxy(metrics)
    reg.counter("requests.accepted", supplier=lambda: owner.accepted)
    del metrics                       # the last strong reference
    reg.snapshot()  # RuntimeError: metric requests.accepted: ...
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, Optional, Sequence

#: Default histogram bucket upper bounds (generic log-ish spacing that
#: covers chain lengths, seconds-of-buffer and queue depths alike).
DEFAULT_BOUNDS: Sequence[float] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)


def _supplied(name: str, supplier: Callable[[], float]) -> float:
    """Read *supplier*; one that reads a dead owner fails naming *name*."""
    try:
        return float(supplier())
    except ReferenceError:
        raise RuntimeError(
            f"metric {name}: the object its supplier reads is gone; "
            f"read the registry while its run is alive"
        ) from None


class Counter:
    """A monotonically increasing count: incremented here, or read from
    a supplier when another object already keeps the count."""

    __slots__ = ("name", "value", "supplier")

    def __init__(
        self, name: str, supplier: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.value = 0.0
        self.supplier = supplier

    def inc(self, amount: float = 1.0) -> None:
        if self.supplier is not None:
            raise RuntimeError(
                f"counter {self.name} reads its supplier; count at the source"
            )
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> float:
        if self.supplier is not None:
            return _supplied(self.name, self.supplier)
        return self.value


class Gauge:
    """A point-in-time value computed by a supplier (0 until it has one)."""

    __slots__ = ("name", "supplier")

    def __init__(
        self, name: str, supplier: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.supplier = supplier

    def snapshot(self) -> float:
        if self.supplier is not None:
            return _supplied(self.name, self.supplier)
        return 0.0


class Histogram:
    """Fixed-bucket histogram with streaming summary statistics.

    Buckets are cumulative-style upper bounds (``value <= bound``); an
    implicit overflow bucket catches the rest.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be sorted")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(
        self, qs: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[float, Optional[float]]:
        """Estimate the *qs*-th percentiles from the bucket counts.

        Uses linear interpolation inside the containing bucket, with the
        observed ``min``/``max`` standing in for the open outer edges —
        so the estimate is exact at q=0/q=100 and never leaves the
        observed range.  With no observations every value is ``None``.
        """
        out: Dict[float, Optional[float]] = {}
        for q in qs:
            if not 0.0 <= q <= 100.0:
                raise ValueError(
                    f"histogram {self.name}: percentile {q} not in [0, 100]"
                )
            out[q] = None
        if self.count == 0:
            return out
        for q in out:
            rank = q / 100.0 * self.count
            cumulative = 0
            for i, n in enumerate(self.bucket_counts):
                if n == 0:
                    continue
                if cumulative + n >= rank:
                    lo = self.bounds[i - 1] if i > 0 else self.min
                    hi = self.bounds[i] if i < len(self.bounds) else self.max
                    lo = max(lo, self.min)
                    hi = min(hi, self.max)
                    if hi < lo:
                        lo = hi
                    fraction = (rank - cumulative) / n
                    out[q] = lo + fraction * (hi - lo)
                    break
                cumulative += n
            else:  # pragma: no cover - rank <= count always lands
                out[q] = self.max
        return out

    def snapshot(self) -> Dict[str, Any]:
        buckets = {
            f"le_{bound:g}": n
            for bound, n in zip(self.bounds, self.bucket_counts)
        }
        buckets["inf"] = self.bucket_counts[-1]
        pct = self.percentiles((50.0, 95.0, 99.0))
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "p50": pct[50.0],
            "p95": pct[95.0],
            "p99": pct[99.0],
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create home for named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(
        self, name: str, supplier: Optional[Callable[[], float]] = None
    ) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._counters[name] = Counter(name, supplier)
        elif supplier is not None:
            inst.supplier = supplier
        return inst

    def gauge(
        self, name: str, supplier: Optional[Callable[[], float]] = None
    ) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._gauges[name] = Gauge(name, supplier)
        elif supplier is not None:
            inst.supplier = supplier
        return inst

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            self._check_free(name)
            inst = self._histograms[name] = Histogram(name, bounds)
        return inst

    def _check_free(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(
                f"metric name {name!r} already registered as another type"
            )

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Counter]:
        """Registered counters by name (read-only view semantics)."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """Registered gauges by name."""
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        """Registered histograms by name."""
        return dict(self._histograms)

    def reset(self) -> None:
        """Zero every counter and histogram (warmup-window reset); a
        gauge reads live state, so there is nothing to zero."""
        for group in (self._counters, self._histograms):
            for inst in group.values():
                inst.reset()

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict of every instrument's current value."""
        return {
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.snapshot() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
