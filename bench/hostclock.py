"""Host-speed calibration for every host-time number in the ledger.

The sandboxes this benchmark runs on share their cores: the same
computation is up to 2.5x slower from one second to the next (measured
here on an idle 2-vCPU guest, steal time not reported), in regimes
lasting a few seconds.  A plain median over a 10 s run then differs by
6-9 % between runs, with occasional runs 50 % off.

So each timed interval is bracketed by two fixed pure-Python kernels —
an arithmetic loop and a pointer chase over a few MB of scattered
objects — and scaled by the reference time of each over the measured
one (geometric mean of the two): the number reported is *seconds at the
reference host speed*.  Neither kernel alone tracks the simulator (its
slow-downs are part pipeline, part cache: arithmetic-only calibration
left windows of 25 repetitions 4-5 % apart, chase-only 3-11 %, the mean
of both 2-3 %).  The raw samples are kept in the report.

The kernels live here, outside the program, so a change to ``repro``
cannot move them.  The tracking is still imperfect, which is why
repetitions are kept short and many.
"""

from __future__ import annotations

import math
import random
import resource
from time import perf_counter
from typing import Callable, List, Optional, Tuple

#: Arithmetic kernel: iterations, and seconds on the reference host.
ALU_ITERATIONS = 300_000
REFERENCE_ALU_S = 0.015

#: Pointer-chase kernel: steps, ring size, seconds on the reference host.
MEM_STEPS = 40_000
MEM_RING = 60_000
REFERENCE_MEM_S = 0.0135

#: A bracket older than this is not reused as the next leading one.
_FRESH_S = 0.05


def alu_spin(iterations: int = ALU_ITERATIONS, clock=perf_counter) -> float:
    """Seconds (on *clock*) the arithmetic kernel takes right now."""
    t0 = clock()
    x = 0
    for i in range(iterations):
        x += i * i
    return clock() - t0


class _Node:
    __slots__ = ("value", "key", "next")


_ring: Optional[Tuple[_Node, dict]] = None


def _build_ring() -> Tuple[_Node, dict]:
    """Nodes linked in a shuffled order (so the chase misses caches the
    way object-heavy Python does), plus a dict over them."""
    nodes: List[_Node] = []
    for i in range(MEM_RING):
        node = _Node()
        node.value = float(i)
        node.key = i
        nodes.append(node)
    order = list(range(MEM_RING))
    random.Random(7).shuffle(order)
    for i, j in enumerate(order):
        nodes[j].next = nodes[order[(i + 1) % MEM_RING]]
    return nodes[0], {i: nodes[j] for i, j in enumerate(order)}


def mem_spin(steps: int = MEM_STEPS, clock=perf_counter) -> float:
    """Seconds (on *clock*) the pointer-chase kernel takes right now."""
    global _ring
    if _ring is None:
        _ring = _build_ring()
    node, table = _ring
    t0 = clock()
    acc = 0.0
    for _ in range(steps):
        node = node.next
        acc += node.value * 0.5
        if node.key & 7 == 0:
            acc += table[node.key].value
    return clock() - t0


def slowdown(fraction: float = 1.0, clock=perf_counter) -> float:
    """How much slower than the reference host this one is right now
    (geometric mean over the two kernels, each run at *fraction* of its
    full length)."""
    alu = alu_spin(int(ALU_ITERATIONS * fraction), clock) / (
        REFERENCE_ALU_S * fraction
    )
    mem = mem_spin(int(MEM_STEPS * fraction), clock) / (
        REFERENCE_MEM_S * fraction
    )
    return math.sqrt(alu * mem)


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class HostClock:
    """Times intervals in reference-host seconds."""

    def __init__(self) -> None:
        self._slowdown = slowdown()
        self._at = perf_counter()

    def open(self) -> float:
        """Open a bracket: the leading calibration (the previous trailing
        one when it is fresh).  Pass the value to :meth:`scale_since`."""
        if perf_counter() - self._at > _FRESH_S:
            self._slowdown = slowdown()
        return self._slowdown

    def scale_since(self, leading: float) -> float:
        """Close a bracket opened with :meth:`open`: the factor that
        turns seconds measured in between into reference seconds."""
        self._slowdown = trailing = slowdown()
        self._at = perf_counter()
        return 2.0 / (leading + trailing)

    def timed(self, fn: Callable[[], object]) -> Tuple[object, float, float, float]:
        """Run *fn*; returns ``(result, wall, cpu, scale)`` with wall and
        CPU seconds as measured and the factor to calibrate them by."""
        leading = self.open()
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        return result, wall, cpu, self.scale_since(leading)
