"""High-level facade: configure, build and run one simulation.

This is the main public entry point::

    from repro import Simulation, SimulationConfig, SMALL_SYSTEM
    from repro.core.migration import MigrationPolicy

    cfg = SimulationConfig(
        system=SMALL_SYSTEM,
        theta=0.5,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,
        duration=3600.0 * 50,
        seed=7,
    )
    result = Simulation(cfg).run()
    print(result.utilization)

The builder wires: RNG substreams → catalog → Zipf demand → placement →
servers/managers → distribution controller → Poisson arrivals, then
runs the engine for ``duration`` seconds and measures Section 4.1's
utilization and rejection statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.metrics import SimulationMetrics
from repro.cluster.client import ClientProfile, staging_capacity
from repro.cluster.controller import Decided, DistributionController
from repro.cluster.membership import ClusterMembership
from repro.cluster.profile import (
    CalibrationConfig,
    ClusterProfile,
    calibrate,
    identity_profile,
)
from repro.cluster.system import SystemConfig
from repro.core.elastic import ElasticPolicy, ElasticScaler
from repro.core.migration import MigrationPolicy
from repro.core.failover import FailoverManager
from repro.core.replication import DynamicReplicator, ReplicationPolicy
from repro.core.schedulers import ALLOCATORS
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    RetryPolicy,
    RetryQueue,
)
from repro.placement import PLACEMENTS
from repro.placement.base import PlacementResult
from repro.prefix import PrefixPolicy, PrefixTier
from repro.serialize import Config
from repro.sim.engine import Engine, SimulationError
from repro.sim.rng import RandomStreams
from repro.units import DEFAULT_CLIENT_RECEIVE_BANDWIDTH
from repro.workload.arrivals import (
    ARRIVALS,
    PoissonArrivalProcess,
    calibrated_arrival_rate,
)
from repro.workload.catalog import VideoCatalog, make_catalog
from repro.workload.interactivity import InteractivityModel
from repro.workload.zipf import ZipfPopularity


class ParityError(SimulationError):
    """An arrival was submitted behind the engine clock: deciding it
    "now" would diverge from a run that decides it at its own time."""


#: The compatibility matrix: one ``(side, test, why)`` row per feature
#: pair a side refuses.  :class:`SimulationConfig` raises ``why`` for a
#: ``"sim"`` row whose ``test(config)`` holds; the live gateway
#: (:class:`repro.serve.ClusterGateway`) for a ``"serve"`` row, and
#: ``repro verify`` then skips the live leg.  Closing a pair deletes
#: its row.
REFUSALS: Tuple[Tuple[str, Callable[["SimulationConfig"], bool], str], ...] = (
    (
        "sim",
        lambda c: c.prefix is not None and c.pause_hazard > 0,
        "prefix tier and VCR interactivity are incompatible: a paused "
        "parent stalls the playout relay chained sessions depend on "
        "(set pause_hazard=0 or prefix=None)",
    ),
    (
        "serve",
        lambda c: c.prefix is not None and c.prefix.batching != "none",
        "the live gateway cannot serve chained sessions (a chained "
        "admission has no server stream for the pacing loop to drain); "
        "use prefix batching='none' for cache-only operation, or run "
        "the scenario virtually",
    ),
)


def refusal(side: str, config: "SimulationConfig") -> Optional[str]:
    """Why *side* (``"sim"`` / ``"serve"``) refuses *config*, from the
    first :data:`REFUSALS` row it trips, or None."""
    for row_side, test, why in REFUSALS:
        if row_side == side and test(config):
            return why
    return None


@dataclass(frozen=True)
class SimulationConfig(Config):
    """Everything needed to reproduce one run.

    Attributes:
        system: cluster + catalog parameterisation (Figure 3 presets).
        theta: Zipf demand-uniformity parameter (1 = uniform; at
            most 1, where video id is demand rank).
        placement: placement registry key (see ``repro.placement``).
        migration: DRM configuration.
        staging_fraction: client staging buffer as a fraction of the
            mean video size (0.2 is the paper's near-optimum).
        scheduler: allocator registry key (``"eftf"`` default).
        duration: simulated seconds (measurement window end).
        warmup: seconds excluded from the measurement at the start of
            the run.  The paper simulates 1000 hours so its ramp-in is
            negligible; at the scaled durations used here a warmup of a
            few mean video lengths removes the empty-system bias.
        load: offered load as a fraction of cluster capacity (paper: 1).
        seed: root seed; all randomness derives from it.
        client_receive_bandwidth: per-client ingest cap, Mb/s;
            ``math.inf`` removes the cap (Theorem 1's regime).
        replication: enable the dynamic-replication extension with the
            given policy (None = static placement, as in the paper).
        pause_hazard: per-second rate at which playing viewers hit
            pause (VCR interactivity extension; 0 disables, as in the
            paper and Theorem 1's assumption).
        mean_pause: mean pause length in seconds (exponential).
        client_mix: heterogeneous client population (extension; the
            paper's §6 notes "client resource capabilities can vary"):
            a tuple of ``(weight, staging_fraction)`` classes sampled
            per request.  ``None`` (default) gives every client the
            homogeneous ``staging_fraction`` buffer.
        faults: declarative chaos schedule (see
            :class:`repro.faults.FaultPlan`); ``None`` (default) injects
            nothing, as in the paper.
        retry: graceful-degradation retry queue configuration (see
            :class:`repro.faults.RetryPolicy`); ``None`` (default)
            loses rejected/orphaned requests, as in the paper.
        invariants: attach the online invariant checker
            (:class:`repro.faults.InvariantChecker`); also switchable
            per-environment via ``REPRO_INVARIANTS=1``.
        arrivals: arrival-process registry key (see
            :data:`repro.workload.arrivals.ARRIVALS`); ``"poisson"``
            (the paper's model) or ``"bursty"``.
        arrival_params: extra keyword arguments for the arrival-process
            constructor, as a tuple of ``(name, value)`` pairs (a tuple
            so the config stays hashable; scenario files write a JSON
            object).  E.g. ``(("burst_multiplier", 4.0),)``.
        calibration: run the deterministic calibration micro-benchmark
            (:mod:`repro.cluster.profile`) so every policy reads
            *measured* per-server capacities; ``None`` (default) uses
            the identity profile (measured == preset).
        elastic: elastic membership schedule/trigger
            (:class:`repro.core.elastic.ElasticPolicy`); ``None``
            (default) freezes membership, as in the paper.
        prefix: prefix-cache / stream-sharing tier configuration
            (:class:`repro.prefix.PrefixPolicy`); ``None`` (default)
            sends every arrival straight to normal admission, as in
            the paper.  Incompatible with VCR interactivity
            (``pause_hazard > 0``; see :data:`REFUSALS`).
    """

    system: SystemConfig
    theta: float = 0.0
    placement: str = "even"
    migration: MigrationPolicy = field(default_factory=MigrationPolicy.disabled)
    staging_fraction: float = 0.0
    scheduler: str = "eftf"
    duration: float = 3600.0 * 100
    warmup: float = 0.0
    load: float = 1.0
    seed: int = 0
    client_receive_bandwidth: float = DEFAULT_CLIENT_RECEIVE_BANDWIDTH
    replication: Optional["ReplicationPolicy"] = None
    pause_hazard: float = 0.0
    mean_pause: float = 300.0
    client_mix: Optional[Tuple[Tuple[float, float], ...]] = None
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    invariants: bool = False
    arrivals: str = "poisson"
    arrival_params: Tuple[Tuple[str, float], ...] = ()
    calibration: Optional[CalibrationConfig] = None
    elastic: Optional[ElasticPolicy] = None
    prefix: Optional[PrefixPolicy] = None

    def __post_init__(self) -> None:
        why = refusal("sim", self)
        if why is not None:
            raise ValueError(why)
        if self.client_mix is not None:
            if not self.client_mix:
                raise ValueError("client_mix must have at least one class")
            for weight, fraction in self.client_mix:
                if weight <= 0:
                    raise ValueError(
                        f"client_mix weights must be positive, got {weight}"
                    )
                if fraction < 0:
                    raise ValueError(
                        f"client_mix staging fractions must be >= 0, "
                        f"got {fraction}"
                    )
        if self.theta > 1:
            # Above 1 the Zipf ranking inverts: video id is no longer
            # demand rank, which placement and prefix warming assume.
            raise ValueError(
                f"theta must be <= 1 (1 = uniform; the paper sweeps "
                f"[-1.5, 1]), got {self.theta}"
            )
        if self.pause_hazard < 0:
            raise ValueError(
                f"pause_hazard must be >= 0, got {self.pause_hazard}"
            )
        if self.mean_pause <= 0:
            raise ValueError(
                f"mean_pause must be positive, got {self.mean_pause}"
            )
        # Registry lookups raise UnknownKeyError (a ValueError) naming
        # the valid choices — the actionable-error contract.
        PLACEMENTS.get(self.placement)
        ALLOCATORS.get(self.scheduler)
        ARRIVALS.get(self.arrivals)
        for pair in self.arrival_params:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
            ):
                raise ValueError(
                    f"arrival_params must be (name, value) pairs, got {pair!r}"
                )
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not 0 <= self.warmup < self.duration:
            raise ValueError(
                f"warmup must be in [0, duration), got {self.warmup}"
            )
        if self.staging_fraction < 0:
            raise ValueError(
                f"staging_fraction must be >= 0, got {self.staging_fraction}"
            )
        if self.load <= 0:
            raise ValueError(f"load must be positive, got {self.load}")


@dataclass
class SimulationResult:
    """Measured outputs of one run."""

    config: SimulationConfig
    utilization: float
    acceptance_ratio: float
    rejection_ratio: float
    arrivals: int
    accepted: int
    rejected: int
    migrations: int
    migration_attempts: int
    finished: int
    dropped: int
    underruns: int
    offered_load: float
    arrival_rate: float
    megabits_sent: float
    placement_shortfall: int
    events_fired: int
    #: Graceful-degradation / chaos measures (all zero-ish defaults so
    #: fault-free runs read naturally).
    retries: int = 0
    retry_exhausted: int = 0
    retry_pending: int = 0
    faults_injected: int = 0
    availability: float = 1.0
    #: Prefix-cache / stream-sharing tier measures (zero when the tier
    #: is off — see :mod:`repro.prefix`).
    chained: int = 0
    patched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    cache_megabits: float = 0.0
    chain_underruns: int = 0
    #: Who/what produced this run (seed, version, config hash, REPRO_*
    #: env) — see :func:`repro.obs.provenance.run_provenance`.  Carries
    #: a timestamp, so it is excluded from equality comparisons.
    provenance: Dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        return (
            f"utilization={self.utilization:.4f} "
            f"accept={self.acceptance_ratio:.4f} "
            f"arrivals={self.arrivals} migrations={self.migrations}"
        )


def _injects(config: SimulationConfig) -> bool:
    return config.faults is not None and not config.faults.empty


#: The optional planes, one ``(attribute, stage, on, build)`` row each:
#: build stage *stage* sets ``sim.<attribute>`` to ``build(sim)`` — a
#: live plane, built from the products of earlier stages — when
#: ``on(config)``, else to None, and subscribes the plane to the
#: controller.  Table order is build and subscription order: the
#: controller notifies in it (see :class:`Simulation`).
PLANES: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("invariant_checker", "controller",
     lambda c: c.invariants or obs.env_invariants_enabled(),
     InvariantChecker),
    ("prefix_tier", "prefix", lambda c: c.prefix is not None, PrefixTier),
    ("interactivity", "workload", lambda c: c.pause_hazard > 0.0,
     lambda sim: InteractivityModel(
         engine=sim.engine,
         controller=sim.controller,
         rng=sim.streams.get("interactivity"),
         pause_hazard=sim.config.pause_hazard,
         mean_pause_duration=sim.config.mean_pause,
     )),
    ("failover", "faults", lambda c: c.retry is not None or _injects(c),
     lambda sim: FailoverManager(
         engine=sim.engine,
         servers=sim.controller.servers,
         managers=sim.controller.managers,
         placement=sim.placement_result.placement,
         metrics=sim.metrics,
         on_drop=sim.controller.on_drop,
         tracer=sim.tracer,
     )),
    ("retry_queue", "faults", lambda c: c.retry is not None, RetryQueue),
    ("fault_injector", "faults", _injects, FaultInjector),
    ("replicator", "observers", lambda c: c.replication is not None,
     lambda sim: DynamicReplicator(
         engine=sim.engine,
         servers=sim.controller.servers,
         placement=sim.placement_result.placement,
         catalog=sim.catalog,
         policy=sim.config.replication,
     )),
    ("elastic_scaler", "observers", lambda c: c.elastic is not None,
     ElasticScaler),
)


class Simulation:
    """Build and run one configured simulation.

    Construction performs the static phase (catalog, placement, server
    wiring); :meth:`run` performs the dynamic phase.  A Simulation is
    single-use: call :meth:`run` once.

    **One arrival path.**  :meth:`run` is :meth:`advance` to
    ``duration`` and :meth:`finish`, with the configured arrival
    process deciding each arrival on the engine.  A caller with arrivals
    of its own (the live gateway's :class:`repro.serve.PolicyBridge`, a
    replayed trace) skips :meth:`run`: it feeds each one through
    :meth:`submit` and ends with :meth:`finish`.  Both paths decide an
    arrival at *t* after every engine event due at *t*.

    **Build stages.**  Construction is a pipeline of named stages
    (:data:`BUILD_STAGES`).  A stage runs its ``_build_<stage>`` method,
    if it has one, then builds its :data:`PLANES` rows (each set to None
    when off):

    ========== =====================================================
    stage      products
    ========== =====================================================
    rng        ``streams``, ``engine``
    demand     ``catalog``, ``popularity``
    cluster    ``cluster_profile``, ``servers``, ``membership``
    placement  ``placement_result``
    controller ``controller`` (admission front door, client profiles,
               the run's own request-id counter); ``invariant_checker``
    prefix     ``prefix_tier`` (cache + chaining, warming scheduled)
    workload   ``arrival_rate``; ``interactivity``
    faults     ``failover``, ``retry_queue``, ``fault_injector``
               (started)
    observers  ``replicator``, ``elastic_scaler``
    ========== =====================================================

    Each plane is subscribed to the controller as it is built, so
    :data:`PLANES` order is notification order, and load-bearing.  The
    invariant checker is built first, so every later plane reads "is
    this run checked" as ``sim.invariant_checker is not None``; it
    watches the engine and handles no controller notification.  The
    tier is the first handler: it restores a rejected patch to the
    full transfer before the retry queue queues it, and severs a
    dropped parent's chains before the parent is re-queued.  The rest
    schedule engine events from inside the notification (VCR pause,
    retry backoff, replica copy, scale-out), so their order fixes
    same-instant sequence numbers — every digest.

    The *stage_hooks* argument is the extension point: a mapping from
    stage name to a ``hook(sim)`` callable invoked right after that
    stage, seeing everything built so far — e.g. a ``"placement"`` hook
    can inspect or patch ``sim.placement_result`` before the controller
    is wired (see docs/ARCHITECTURE.md).

    Observability (all optional, zero overhead when off):

    * *tracer* — a :class:`repro.obs.Tracer` receiving structured
      records from every layer; auto-created when ``REPRO_TRACE_OUT``
      is set (the trace is appended there after :meth:`run`).
    * *profiler* — a :class:`repro.obs.EventProfiler` accounting
      per-event-kind wall clock; auto-created (and folded into the
      process aggregate) when ``REPRO_PROFILE`` is on.
    * :attr:`registry` — a :class:`repro.obs.MetricsRegistry` that reads
      the run's :class:`SimulationMetrics`; its run counters and
      histograms exist from build time, at zero; snapshot via
      ``sim.registry.snapshot()``.
    """

    #: The arrival process, started by :meth:`run` (none when fed
    #: through :meth:`submit`).
    _arrivals: Optional[PoissonArrivalProcess] = None

    #: Stage order.  Each stage only consumes products of earlier ones.
    BUILD_STAGES: Tuple[str, ...] = (
        "rng",
        "demand",
        "cluster",
        "placement",
        "controller",
        "prefix",
        "workload",
        "faults",
        "observers",
    )

    def __init__(
        self,
        config: SimulationConfig,
        tracer: Optional[obs.Tracer] = None,
        profiler: Optional[obs.EventProfiler] = None,
        stage_hooks: Optional[
            Mapping[str, Callable[["Simulation"], None]]
        ] = None,
    ) -> None:
        self.config = config
        self._stage_hooks = dict(stage_hooks) if stage_hooks else {}
        unknown = sorted(set(self._stage_hooks) - set(self.BUILD_STAGES))
        if unknown:
            raise ValueError(
                f"unknown build stage(s) {', '.join(map(repr, unknown))}; "
                f"choose from: {', '.join(self.BUILD_STAGES)}"
            )

        self._trace_path = obs.env_trace_path()
        if tracer is None and self._trace_path is not None:
            # Fail fast with one actionable line (missing parent
            # directory etc.) instead of a traceback after the run.
            obs.check_trace_path(self._trace_path, flag="REPRO_TRACE_OUT")
            tracer = obs.Tracer()
        self.tracer = tracer
        self._env_profile = obs.env_profile_enabled()
        if profiler is None and self._env_profile:
            profiler = obs.EventProfiler()
        self.profiler = profiler
        self.registry = obs.MetricsRegistry()

        for stage in self.BUILD_STAGES:
            build = getattr(self, f"_build_{stage}", None)
            if build is not None:
                build()
            for attr, plane_stage, on, plane in PLANES:
                if plane_stage == stage:
                    built = plane(self) if on(config) else None
                    setattr(self, attr, built)
                    if built is not None:
                        self.controller.subscribe(built)
            hook = self._stage_hooks.get(stage)
            if hook is not None:
                hook(self)
        self._finished = False

    def __del__(self) -> None:
        # A build dropped before it finished (never run, or its run
        # raised) retires here, so it too frees through reference
        # counting.  A build that raised never set the flag.
        if self.__dict__.get("_finished") is False:
            self._retire()

    # ------------------------------------------------------------------
    # Build stages (hook point after each; see class docstring)
    # ------------------------------------------------------------------
    def _build_rng(self) -> None:
        """Seeded randomness and the event engine.

        After: ``self.streams`` (named substream factory rooted at
        ``config.seed``) and ``self.engine``.
        """
        self.streams = RandomStreams(seed=self.config.seed)
        self.engine = Engine()

    def _build_demand(self) -> None:
        """Catalog and demand model.

        After: ``self.catalog`` (video lengths/sizes) and
        ``self.popularity`` (the Zipf(θ) demand skew).
        """
        system = self.config.system
        self.catalog: VideoCatalog = make_catalog(
            system.n_videos,
            system.video_length_range,
            self.streams.get("catalog"),
            view_bandwidth=system.view_bandwidth,
        )
        self.popularity = ZipfPopularity(system.n_videos, self.config.theta)

    def _build_cluster(self) -> None:
        """Data servers, calibrated capacities, membership map.

        After: ``self.cluster_profile`` (measured per-server capacities
        — the identity profile unless ``config.calibration`` runs the
        micro-benchmark), ``self.servers`` — fresh :class:`DataServer`
        objects carrying those profiles — and ``self.membership`` with
        every seed server ACTIVE at epoch 0.
        """
        system = self.config.system
        if self.config.calibration is not None:
            self.cluster_profile: ClusterProfile = calibrate(
                system, self.config.calibration, self.streams.get("calibrate")
            )
        else:
            self.cluster_profile = identity_profile(system)
        self.servers = system.build_servers(self.cluster_profile)
        self.membership = ClusterMembership()
        for server in self.servers:
            self.membership.register(server.server_id)

    def _build_placement(self) -> None:
        """Static replica placement.

        After: ``self.placement_result`` — the placement map plus its
        shortfall diagnostic.  A hook here sees replicas assigned but
        nothing wired to serve them yet.  A build that repeats an earlier
        input in this process replays its layout, into a map of its own
        (:mod:`repro.placement.capacity`).
        """
        config = self.config
        policy = PLACEMENTS[config.placement]()
        self.placement_result: PlacementResult = policy.allocate(
            self.catalog,
            self.popularity,
            self.servers,
            config.system.total_copies,
            self.streams.get("placement"),
        )

    def _build_controller(self) -> None:
        """Admission front door.

        After: ``self.controller`` — the
        :class:`DistributionController` wired with client profiles,
        the scheduler/allocator, DRM policy and metrics.
        """
        config = self.config
        receive_bw = config.client_receive_bandwidth
        if config.client_mix is None:
            buffer_capacity = staging_capacity(
                config.staging_fraction, self.catalog.mean_size
            )
            profile = ClientProfile(
                buffer_capacity=buffer_capacity,
                receive_bandwidth=receive_bw,
            )
        else:
            # Heterogeneous clients: one immutable profile per class,
            # sampled per request from a dedicated stream.
            weights = np.array(
                [w for w, _ in config.client_mix], dtype=np.float64
            )
            weights /= weights.sum()
            profiles = [
                ClientProfile(
                    buffer_capacity=staging_capacity(
                        frac, self.catalog.mean_size
                    ) if frac > 0 else 0.0,
                    receive_bandwidth=receive_bw,
                )
                for _, frac in config.client_mix
            ]
            client_rng = self.streams.get("clients")

            def profile(video_id: int) -> ClientProfile:
                idx = int(client_rng.choice(len(profiles), p=weights))
                return profiles[idx]

        self.controller = DistributionController(
            engine=self.engine,
            servers=self.servers,
            catalog=self.catalog,
            placement=self.placement_result.placement,
            client_profile=profile,
            allocator=ALLOCATORS[config.scheduler](),
            migration_policy=config.migration,
            membership=self.membership,
            metrics=SimulationMetrics(registry=self.registry),
            tracer=self.tracer,
        )

    def _build_workload(self) -> None:
        """Request generation.

        After: ``self.arrival_rate`` (calibrated to ``config.load``).
        The registered arrival process itself starts with :meth:`run`.
        """
        config = self.config
        self.arrival_rate = calibrated_arrival_rate(
            self.popularity,
            self.catalog,
            config.system.total_bandwidth,
            load=config.load,
        )

    @property
    def metrics(self) -> SimulationMetrics:
        return self.controller.metrics

    def advance(self, time: float) -> None:
        """Fire every engine event due at or before *time* (a no-op for
        a time behind the clock).  Crossing ``config.warmup`` settles
        the transfer accounting there and discards everything measured
        so far — not the trace: the ramp-in records are part of the
        debugging story."""
        engine = self.engine
        if time < engine.now:
            return
        warmup = self.config.warmup
        if engine.now < warmup <= time:
            engine.run_until(warmup)
            for manager in self.controller.managers.values():
                manager.flush(warmup)
            self.metrics.reset()
        engine.run_until(time)

    def submit(self, time: float, video: int) -> Decided:
        """Decide one arrival for *video* at virtual *time* (>= the
        clock) after every engine event due by then, as :meth:`run`'s
        own arrivals are (docs/SERVING.md, "The parity contract")."""
        if time < self.engine.now:
            raise ParityError(
                f"arrival at virtual t={time:.6f} is behind the policy "
                f"clock {self.engine.now:.6f}"
            )
        self.advance(time)
        return self._decide(video)

    def _decide(self, video: int) -> Decided:
        """Every arrival's decision, on either path (a bridge records it)."""
        return self.controller.submit(video)

    def run(self) -> SimulationResult:
        """Start the arrival process, advance to ``duration``, finish."""
        if self._finished:
            raise RuntimeError("Simulation objects are single-use")
        cfg = self.config
        self._arrivals = ARRIVALS[cfg.arrivals](
            engine=self.engine,
            rate=self.arrival_rate,
            popularity=self.popularity,
            rng=self.streams.get("arrivals"),
            on_arrival=self._decide,
            **dict(cfg.arrival_params),
        )
        if self.profiler is not None:
            self.profiler.attach(self.engine)
        try:
            self.advance(cfg.duration)
        finally:
            if self.profiler is not None:
                self.profiler.detach()
        return self.finish()

    def finish(self) -> SimulationResult:
        """End the run at the engine clock and measure it: stop the
        arrivals, run the invariant checks, settle the accounting, and
        retire (a finished Simulation frees itself once dropped)."""
        if self._finished:
            raise RuntimeError("Simulation objects are single-use")
        self._finished = True
        cfg = self.config
        end = self.engine.now
        if self._arrivals is not None:
            self._arrivals.stop()
        if self.invariant_checker is not None:
            self.invariant_checker.check_now()
        if self.prefix_tier is not None:
            self.prefix_tier.check_invariants(end)
        self.controller.finalize(end)
        provenance = obs.run_provenance(seed=cfg.seed, config=cfg)
        if self.tracer is not None and self._trace_path is not None:
            self.tracer.export_jsonl(
                self._trace_path, provenance=provenance, append=True
            )
        if self.profiler is not None and self._env_profile:
            from repro.obs import profiler as profiling

            profiling.aggregate(self.profiler)
        metrics = self.metrics
        total_bw = cfg.system.total_bandwidth
        window = end - cfg.warmup
        pending = self.retry_queue.pending if self.retry_queue else 0
        result = SimulationResult(
            config=cfg,
            utilization=(
                metrics.utilization(total_bw, window) if window > 0 else 0.0
            ),
            acceptance_ratio=metrics.acceptance_ratio,
            rejection_ratio=metrics.rejection_ratio,
            arrivals=metrics.arrivals,
            accepted=metrics.accepted,
            rejected=metrics.rejected,
            migrations=metrics.migrations,
            migration_attempts=metrics.migration_attempts,
            finished=metrics.finished,
            dropped=metrics.dropped,
            underruns=metrics.underruns,
            offered_load=cfg.load,
            arrival_rate=self.arrival_rate,
            megabits_sent=metrics.total_megabits,
            placement_shortfall=self.placement_result.shortfall,
            events_fired=self.engine.events_fired,
            retries=metrics.retries,
            retry_exhausted=metrics.retry_exhausted,
            retry_pending=pending,
            faults_injected=metrics.faults_injected,
            availability=metrics.availability(pending_retries=pending),
            chained=metrics.chained,
            patched=metrics.patched,
            cache_hits=metrics.cache_hits,
            cache_misses=metrics.cache_misses,
            cache_hit_rate=metrics.cache_hit_rate,
            cache_megabits=metrics.cache_megabits,
            chain_underruns=(
                self.prefix_tier.chain_underruns if self.prefix_tier else 0
            ),
            provenance=provenance,
        )
        self._retire()
        return result

    def _retire(self) -> None:
        """Cut the run's reference cycles, so that dropping the last
        reference to this Simulation frees its whole graph at once: at
        :meth:`finish`, or on drop for a build that never finished.

        The agenda's events and the managers' pending boundaries are
        bound methods of objects that hold the engine; the managers'
        finish hook and the controller's subscribers point back at
        the controller.  Everything the run counted stays readable.
        """
        self.engine.retire()
        controller = self.controller
        for manager in controller.managers.values():
            manager.deactivate()
            manager.on_finish = None
        controller.intercept = None
        for handlers in (
            controller.on_decision, controller.on_finish, controller.on_drop,
        ):
            handlers.clear()


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """One-shot convenience wrapper."""
    return Simulation(config).run()
