"""repro.obs — observability for the simulation stack.

Three independent instruments, designed to coexist on one engine:

* :mod:`repro.obs.tracer` — structured event tracing.  A
  :class:`~repro.obs.tracer.Tracer` collects typed
  :class:`~repro.obs.records.TraceRecord` objects (request lifecycle,
  server health, scheduler activity) into a bounded ring buffer and
  exports them as JSONL.  Instrumentation points live in
  ``cluster.controller``, ``core.admission``, ``core.migration``,
  ``core.failover``, ``core.schedulers`` and ``core.transmission`` and
  cost a single ``is None`` check when tracing is off.
* :mod:`repro.obs.registry` — a named-metrics registry (counters,
  gauges, histograms) that reads
  :class:`repro.analysis.metrics.SimulationMetrics`' counts, with a
  ``snapshot() -> dict`` API consumed by :mod:`repro.analysis.export`.
* :mod:`repro.obs.profiler` — wall-clock accounting per engine event
  kind plus an events/sec throughput figure, attached to
  :class:`repro.sim.engine.Engine` behind a flag (zero-cost when off).

Run provenance (seed, scale, package version, config hash, REPRO_*
environment overrides) is produced by :mod:`repro.obs.provenance` and
stamped into every export.

Environment switches (consumed by :class:`repro.Simulation` and the
CLI ``--trace-out`` / ``--profile`` flags):

* ``REPRO_TRACE_OUT=<path>`` — append a JSONL trace of every run.
* ``REPRO_PROFILE=1`` — profile events and aggregate a report.
* ``REPRO_INVARIANTS=1`` — attach the online invariant checker
  (:mod:`repro.faults.invariants`) to every run.

See ``docs/OBSERVABILITY.md`` for the record schema and metric names.
"""

from repro.obs.logging import get_logger, progress_printer
from repro.obs.profiler import EventProfiler, ProfileReport
from repro.obs.prometheus import parse_prometheus, render_prometheus
from repro.obs.provenance import config_hash, run_provenance
from repro.obs.recorder import FlightRecorder, read_postmortem
from repro.obs.records import TraceKind, TraceRecord
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import (
    check_trace_path,
    env_invariants_enabled,
    env_profile_enabled,
    env_trace_path,
    obs_active,
)
from repro.obs.spans import SessionSpan, SpanEvent, SpanLog, SpanPhase
from repro.obs.tracer import Tracer

__all__ = [
    "Counter",
    "EventProfiler",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfileReport",
    "SessionSpan",
    "SpanEvent",
    "SpanLog",
    "SpanPhase",
    "TraceKind",
    "TraceRecord",
    "Tracer",
    "check_trace_path",
    "config_hash",
    "env_invariants_enabled",
    "env_profile_enabled",
    "env_trace_path",
    "get_logger",
    "obs_active",
    "parse_prometheus",
    "progress_printer",
    "read_postmortem",
    "render_prometheus",
    "run_provenance",
]
