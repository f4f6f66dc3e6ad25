"""In-memory spans with parent links, and the statistics the ledger uses.

Nothing here imports ``repro``: the recorder and the arithmetic are
checked on synthetic inputs by ``bench/selftest.py``.

A span is ``(name, parent, start, end)``.  The recorder keeps them in
four flat arrays (a traced prefix run records ~1M spans; tuples would
cost ten times the memory), the parent being whatever span was open
when this one began.  *Self time* is a span's duration minus the
duration of its direct children, so the self times of a tree sum to
the root's duration and a layer is never charged for the layers it
calls.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np


class LayerTotals(NamedTuple):
    """Per-name aggregate of a recorded span set."""

    count: int
    total_s: float  #: sum of span durations
    self_s: float  #: sum of (duration - direct children)


class SpanRecorder:
    """Stack-based span recorder (single-threaded, like the simulator)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self._name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> None:
        """Open a span named ``names[nid]`` under the current one."""
        stack = self._stack
        self._name.append(nid)
        self._parent.append(stack[-1] if stack else -1)
        stack.append(len(self._start))
        self._end.append(0.0)
        self._start.append(perf_counter())

    def end(self) -> None:
        """Close the innermost open span."""
        now = perf_counter()
        self._end[self._stack.pop()] = now

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Append a finished span directly (synthetic trees in tests)."""
        self._name.append(self.name_id(name))
        self._parent.append(parent)
        self._start.append(start)
        self._end.append(end)
        return len(self._name) - 1

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Pass-through wrapper recording one span per call of *fn*."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> Dict[str, LayerTotals]:
        """Aggregate count / total / self time per span name."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        n = len(self._name)
        if n == 0:
            return {}
        name = np.frombuffer(self._name, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        own = np.bincount(name, weights=duration - children, minlength=k)
        return {
            self.names[i]: LayerTotals(int(counts[i]), float(total[i]), float(own[i]))
            for i in range(k)
            if counts[i]
        }

    def clear(self) -> None:
        """Drop recorded spans (names keep their ids)."""
        if self._stack:
            raise RuntimeError("cannot clear with spans open")
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]


def merge_totals(
    into: Dict[str, LayerTotals],
    other: Dict[str, LayerTotals],
    scale: float = 1.0,
) -> None:
    """Add *other*'s aggregates, times multiplied by *scale*, onto
    *into* (summing repetitions, each calibrated by its own factor)."""
    for name, t in other.items():
        prev = into.get(name, LayerTotals(0, 0.0, 0.0))
        into[name] = LayerTotals(
            prev.count + t.count,
            prev.total_s + t.total_s * scale,
            prev.self_s + t.self_s * scale,
        )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
#: Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10

#: The ladder the rule picks from.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def highest_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with >= TAIL_SAMPLES samples beyond it."""
    best = None
    for q in PERCENTILES:
        # (the epsilon keeps 100 samples x 10 % from reading 9.999...)
        if n * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = q
    return best


def supported(n: int, q: float) -> bool:
    """Whether *n* samples carry the *q*-th percentile under the rule."""
    top = highest_percentile(n)
    return top is not None and q <= top


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Optional[List[float]]:
    """``[q1, q2, q3]`` as ``statistics.quantiles(n=4)`` gives them (the
    driver's spread rule), or None with fewer than two samples."""
    if len(values) < 2:
        return None
    return [float(q) for q in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median."""
    qs = quartiles(values)
    mid = median(values) if values else 0.0
    if qs is None or mid == 0:
        return None
    return (qs[2] - qs[0]) / abs(mid)
