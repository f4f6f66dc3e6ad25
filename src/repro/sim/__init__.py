"""Discrete-event simulation kernel.

A small, deterministic, SimPy-class engine built from scratch (the offline
environment has no SimPy).  It provides:

* :class:`~repro.sim.engine.Engine` — the event loop: a binary-heap
  agenda with stable FIFO tie-breaking at equal timestamps, O(1) lazy
  cancellation, and bounded runs (``run_until``).
* :class:`~repro.sim.events.Event` — a scheduled callback handle.
* :mod:`~repro.sim.process` — generator-based processes and periodic
  timers layered on the engine, used by workload generators.
* :mod:`~repro.sim.rng` — named, independently-seeded random substreams so
  that experiments are reproducible and components are decoupled.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import Event, EventState
from repro.sim.process import PeriodicTimer, Process
from repro.sim.rng import RandomStreams

__all__ = [
    "Engine",
    "Event",
    "EventState",
    "PeriodicTimer",
    "Process",
    "RandomStreams",
    "SimulationError",
]
