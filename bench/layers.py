"""The traced pass: spans around each layer's public entry points.

Everything here wraps ``repro`` from outside — no span is recorded by
the program itself (that is a later issue, see bench/README.md).  Three
mechanisms, all already public:

* engine events: an ``Engine.add_trace`` subscriber opens a span named
  after the event kind's layer, an :class:`EventProfiler` subclass
  closes it, so everything a callback calls nests under its event;
* build stages: ``Simulation(stage_hooks=...)`` stamps the clock after
  each of ``Simulation.BUILD_STAGES``;
* layer objects: pass-through timing wrappers on the entry-point
  methods, installed on the classes for the duration of the pass (so
  mid-run elastic joiners are covered) and removed afterwards.

The untraced runs never import this module's patches, so the end-to-end
numbers are taken with none of this in place.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro.core.admission as admission_mod
import repro.core.elastic as elastic_mod
import repro.core.failover as failover_mod
from repro.cluster.controller import DistributionController
from repro.core.admission import AdmissionController
from repro.core.failover import FailoverManager
from repro.core.schedulers import BandwidthAllocator
from repro.core.transmission import TransmissionManager
from repro.faults.invariants import InvariantChecker
from repro.obs import EventProfiler
from repro.obs.tracer import Tracer
from repro.prefix.tier import PrefixTier
from repro.serve.bridge import PolicyBridge
from repro.sim.engine import Engine
from repro.simulation import Simulation

from spans import LayerTotals, SpanRecorder

def _event_key(kind: str) -> str:
    """What decides an event's span: the kind's group (the text before
    the first ``:`` — per-request kinds like ``retry:req17`` are
    unbounded), except that membership changes keep their action."""
    return kind if kind.startswith("elastic:scale_") else kind.partition(":")[0]


#: Event key -> span name (``fault.*`` groups go to the injector).
_EVENT_SPANS = {
    "tx-boundary": "core.transmission.boundary",
    "process": "workload.arrivals",
    "cache": "prefix.event",
    "retry": "faults.retry",
    "elastic": "core.elastic.event",
    "elastic:scale_out": "core.elastic.scale",
    "elastic:scale_in": "core.elastic.scale",
}


def _event_span(key: str) -> str:
    if key.startswith("fault."):
        return "faults.injector"
    return _EVENT_SPANS.get(key, "sim.engine.other")


class _SpanProfiler(EventProfiler):
    """Closes the event span the trace subscriber opened."""

    def __init__(self, end: Callable[[], None]) -> None:
        super().__init__()
        self._end_span = end

    def record(self, kind: str, seconds: float) -> None:
        self._end_span()


class LayerTrace:
    """One traced pass: install with ``with``, read ``totals()`` after."""

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.profiler = _SpanProfiler(self.rec.end)
        #: Streams handed to the allocator, summed over calls.
        self.streams_allocated = 0
        #: Chain searches that found a chain.
        self.chains_found = 0
        self._kind_ids: Dict[str, int] = {}
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # Engine events
    # ------------------------------------------------------------------
    def on_event(self, event) -> None:
        """``Engine.add_trace`` subscriber: open the event's span."""
        key = _event_key(event.kind)
        nid = self._kind_ids.get(key)
        if nid is None:
            nid = self._kind_ids[key] = self.rec.name_id(_event_span(key))
        self.rec.begin(nid)

    def attach(self, engine: Engine) -> None:
        """Trace an engine that is not run through ``Simulation.run``
        (the live gateway's policy engine)."""
        engine.add_trace(self.on_event)
        self.profiler.attach(engine)

    def stage_hooks(self, stamps: Dict[str, float]) -> Dict[str, Callable]:
        """Hooks that stamp the clock after each build stage (into
        *stamps*) and subscribe the event tracer once the engine exists."""

        def hook(stage: str):
            def run(sim) -> None:
                stamps[stage] = perf_counter()
                if stage == "rng":
                    sim.engine.add_trace(self.on_event)

            return run

        return {stage: hook(stage) for stage in Simulation.BUILD_STAGES}

    # ------------------------------------------------------------------
    # Layer wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, wrap=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, (wrap or self.rec.wrap)(original, name))

    def _wrap_allocate(self, fn, name):
        traced = self.rec.wrap(fn, name)

        def allocate_into(allocator, server, requests, now):
            self.streams_allocated += len(requests)
            return traced(allocator, server, requests, now)

        return allocate_into

    def _wrap_search(self, fn, name):
        traced = self.rec.wrap(fn, name)

        def find_migration_chain(*args, **kwargs):
            chain = traced(*args, **kwargs)
            if chain is not None:
                self.chains_found += 1
            return chain

        return find_migration_chain

    def __enter__(self) -> "LayerTrace":
        p = self._patch
        p(Engine, "run_until", "sim.engine")
        p(DistributionController, "submit", "cluster.controller")
        p(DistributionController, "resubmit", "cluster.controller")
        p(AdmissionController, "submit", "core.admission")
        # The chain search and executor are module-level functions; wrap
        # the binding each caller resolves.
        for mod in (admission_mod, elastic_mod, failover_mod):
            p(mod, "find_migration_chain", "core.migration.search",
              self._wrap_search)
            p(mod, "execute_chain", "core.migration.execute")
        for method in ("admit", "migrate_in", "migrate_out"):
            p(TransmissionManager, method, "core.transmission.trigger")
        p(BandwidthAllocator, "allocate_into", "core.schedulers.allocate",
          self._wrap_allocate)
        p(PrefixTier, "intercept", "prefix.intercept")
        p(InvariantChecker, "check_now", "faults.invariants")
        for method in ("fail_server", "restore_server", "degrade_server",
                       "restore_link", "lose_replica"):
            p(FailoverManager, method, "core.failover")
        p(Tracer, "emit", "obs.tracer")
        p(PolicyBridge, "submit", "serve.bridge.submit")
        p(PolicyBridge, "advance", "serve.bridge.advance")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, LayerTotals]:
        """Aggregate and drop the spans recorded so far."""
        out = self.rec.totals()
        self.rec.clear()
        return out


# ----------------------------------------------------------------------
# Spans + counters -> per-layer metrics
# ----------------------------------------------------------------------
_ZERO = LayerTotals(0, 0.0, 0.0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_metrics(
    totals: Dict[str, LayerTotals], trace: LayerTrace, runs: int
) -> Dict[str, float]:
    """Time-and-count metrics from span totals summed over *runs*
    identical iterations (reported per iteration)."""

    def t(name: str) -> LayerTotals:
        return totals.get(name, _ZERO)

    def self_s(*names: str) -> float:
        return sum(t(n).self_s for n in names) / runs

    def count(*names: str) -> float:
        return sum(t(n).count for n in names) / runs

    out = {
        "sim.engine.self_s": self_s("sim.engine", "sim.engine.other"),
        "workload.arrivals.self_s": self_s("workload.arrivals"),
        "workload.arrivals.requests": count("workload.arrivals"),
        "cluster.controller.submit_s": self_s("cluster.controller"),
        "cluster.controller.submits": count("cluster.controller"),
        "core.admission.self_s": self_s("core.admission"),
        "core.admission.decisions": count("core.admission"),
        "core.migration.search_s": self_s("core.migration.search"),
        "core.migration.searches": count("core.migration.search"),
        "core.migration.success_ratio": _ratio(
            trace.chains_found, t("core.migration.search").count
        ),
        "core.migration.execute_s": self_s("core.migration.execute"),
        "core.transmission.self_s": self_s(
            "core.transmission.boundary", "core.transmission.trigger"
        ),
        "core.transmission.boundaries": count("core.transmission.boundary"),
        "core.schedulers.allocate_s": self_s("core.schedulers.allocate"),
        "core.schedulers.allocate_calls": count("core.schedulers.allocate"),
        "core.schedulers.streams_per_call": _ratio(
            trace.streams_allocated, t("core.schedulers.allocate").count
        ),
    }
    if "prefix.intercept" in totals:
        out["prefix.intercept_s"] = self_s("prefix.intercept")
        out["prefix.intercepts"] = count("prefix.intercept")
        out["prefix.event_s"] = self_s("prefix.event")
    if "faults.injector" in totals:
        out["faults.injector.event_s"] = self_s("faults.injector")
        out["faults.retry.event_s"] = self_s("faults.retry")
        out["faults.invariants.check_s"] = self_s("faults.invariants")
        out["core.failover.self_s"] = self_s("core.failover")
        out["core.elastic.event_s"] = self_s(
            "core.elastic.event", "core.elastic.scale"
        )
        out["core.elastic.scale_events"] = count("core.elastic.scale")
    if "obs.tracer" in totals:
        out["obs.tracer.emit_s"] = self_s("obs.tracer")
        out["obs.tracer.records"] = count("obs.tracer")
    if "serve.bridge.submit" in totals:
        out["serve.bridge.submit_s"] = self_s("serve.bridge.submit")
        out["serve.bridge.advance_s"] = self_s("serve.bridge.advance")
        out["serve.bridge.decisions"] = count("serve.bridge.submit")
    return out


def counter_metrics(sim: Simulation) -> Dict[str, float]:
    """Counts and ratios read off a finished simulation's own objects."""
    engine = sim.engine
    m = sim.metrics
    out = {
        "sim.engine.events": engine.events_fired,
        "sim.engine.cancelled_ratio": _ratio(
            engine.events_cancelled,
            engine.events_fired + engine.events_cancelled,
        ),
        "core.transmission.reallocs": sum(
            m.reallocations for m in sim.controller.managers.values()
        ),
        "core.admission.reject_ratio": m.rejection_ratio,
    }
    if sim.prefix_tier is not None:
        out["prefix.chained_ratio"] = _ratio(m.chained, m.arrivals)
        out["prefix.cache_hit_ratio"] = m.cache_hit_rate
    if sim.fault_injector is not None:
        out["faults.injector.faults"] = m.faults_injected
    if sim.retry_queue is not None:
        out["faults.retry.resubmits"] = m.retries
        out["faults.retry.exhausted_ratio"] = _ratio(
            m.retry_exhausted, m.retries
        )
    if sim.invariant_checker is not None:
        out["faults.invariants.checks"] = sim.invariant_checker.checks_run
    if sim.failover is not None:
        relocated = sum(len(r.relocated) for r in sim.failover.reports)
        dropped = sum(len(r.dropped) for r in sim.failover.reports)
        out["core.failover.relocated_ratio"] = _ratio(
            relocated, relocated + dropped
        )
    return out


def build_stage_metrics(
    start: float, stamps: Dict[str, float]
) -> Dict[str, float]:
    """``simulation.build.<stage>_s`` from one build's stage stamps."""
    out = {}
    prev = start
    for stage in Simulation.BUILD_STAGES:
        out[f"simulation.build.{stage}_s"] = stamps[stage] - prev
        prev = stamps[stage]
    return out


def traced_simulation(
    trace: LayerTrace, config, tracer: Optional[Tracer] = None
):
    """Build a :class:`Simulation` wired into *trace*; returns
    ``(sim, build-stage metrics)``."""
    stamps: Dict[str, float] = {}
    start = perf_counter()
    sim = Simulation(
        config,
        tracer=tracer,
        profiler=trace.profiler,
        stage_hooks=trace.stage_hooks(stamps),
    )
    return sim, build_stage_metrics(start, stamps)
