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
from repro.cluster.controller import DistributionController
from repro.cluster.membership import ClusterMembership
from repro.cluster.profile import (
    CalibrationConfig,
    ClusterProfile,
    calibrate,
    identity_profile,
)
from repro.cluster.request import reset_request_ids
from repro.cluster.system import SYSTEMS, SystemConfig
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
from repro.serialize import check_fields, require
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workload.arrivals import ARRIVALS, calibrated_arrival_rate
from repro.workload.catalog import VideoCatalog, make_catalog
from repro.workload.zipf import ZipfPopularity


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one run.

    Attributes:
        system: cluster + catalog parameterisation (Figure 3 presets).
        theta: Zipf demand-uniformity parameter (1 = uniform).
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
        client_receive_bandwidth: overrides the system's per-client
            ingest cap when set; ``math.inf`` removes the cap
            (Theorem 1's regime).
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
            (``pause_hazard > 0``) — a paused parent would stall the
            playout-relay schedule chained sessions depend on.
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
    client_receive_bandwidth: Optional[float] = None
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
        if self.prefix is not None and self.pause_hazard > 0:
            raise ValueError(
                "prefix tier and VCR interactivity are incompatible: "
                "a paused parent stalls the playout relay chained "
                "sessions depend on (set pause_hazard=0 or prefix=None)"
            )
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

    def to_dict(self) -> dict:
        """The full configuration as a JSON-compatible dict.

        Round-trips exactly: ``SimulationConfig.from_dict(cfg.to_dict())
        == cfg`` (the scenario-layer contract, pinned by property
        tests).  Nested policies serialize through their own
        ``to_dict``; ``None`` marks a disabled optional subsystem.
        """
        return {
            "system": self.system.to_dict(),
            "theta": self.theta,
            "placement": self.placement,
            "migration": self.migration.to_dict(),
            "staging_fraction": self.staging_fraction,
            "scheduler": self.scheduler,
            "duration": self.duration,
            "warmup": self.warmup,
            "load": self.load,
            "seed": self.seed,
            "client_receive_bandwidth": self.client_receive_bandwidth,
            "replication": (
                self.replication.to_dict() if self.replication else None
            ),
            "pause_hazard": self.pause_hazard,
            "mean_pause": self.mean_pause,
            "client_mix": (
                [list(pair) for pair in self.client_mix]
                if self.client_mix is not None
                else None
            ),
            "faults": self.faults.to_dict() if self.faults else None,
            "retry": self.retry.to_dict() if self.retry else None,
            "invariants": self.invariants,
            "arrivals": self.arrivals,
            "arrival_params": dict(self.arrival_params),
            "calibration": (
                self.calibration.to_dict() if self.calibration else None
            ),
            "elastic": self.elastic.to_dict() if self.elastic else None,
            "prefix": self.prefix.to_dict() if self.prefix else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationConfig":
        """Build a config from a dict (e.g. a scenario file's body).

        Accepts partial dicts (missing keys use the dataclass
        defaults); ``system`` is mandatory and may be a serialized
        :class:`SystemConfig`, a ``{"preset": name}`` shorthand, or
        just a preset name string.  Unknown keys raise an actionable
        :class:`ValueError`.
        """
        check_fields(cls, data)
        data = dict(data)
        system = require(data, "system", cls)
        del data["system"]
        if isinstance(system, str):
            system = SYSTEMS.get(system)
        elif isinstance(system, Mapping):
            system = SystemConfig.from_dict(system)
        elif not isinstance(system, SystemConfig):
            raise ValueError(
                f"'system' must be a mapping, a preset name, or a "
                f"SystemConfig, got {type(system).__name__}"
            )
        for key, nested in (
            ("migration", MigrationPolicy),
            ("replication", ReplicationPolicy),
            ("faults", FaultPlan),
            ("retry", RetryPolicy),
            ("calibration", CalibrationConfig),
            ("elastic", ElasticPolicy),
            ("prefix", PrefixPolicy),
        ):
            if isinstance(data.get(key), Mapping):
                data[key] = nested.from_dict(data[key])
        if data.get("client_mix") is not None:
            data["client_mix"] = tuple(
                tuple(pair) for pair in data["client_mix"]
            )
        params = data.get("arrival_params")
        if params is not None and not isinstance(params, tuple):
            if isinstance(params, Mapping):
                params = params.items()
            data["arrival_params"] = tuple(
                (str(k), v) for k, v in params
            )
        return cls(system=system, **data)


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


class Simulation:
    """Build and run one configured simulation.

    Construction performs the static phase (catalog, placement, server
    wiring); :meth:`run` performs the dynamic phase.  A Simulation is
    single-use: call :meth:`run` once.

    **Build stages.**  Construction is a pipeline of named stages
    (:data:`BUILD_STAGES`), each a ``_build_<stage>`` method that
    documents what exists once it completes:

    ========== =====================================================
    stage      products
    ========== =====================================================
    rng        ``streams``, ``engine`` (fresh request-id space)
    demand     ``catalog``, ``popularity``
    cluster    ``cluster_profile``, ``servers``, ``membership``
    placement  ``placement_result``, ``placement_policy``
    controller ``controller`` (admission front door, client profiles)
    prefix     ``prefix_tier`` (cache + chaining, warming scheduled)
    workload   ``arrival_rate``, arrival process, ``interactivity``
    faults     ``failover``, ``retry_queue``, ``fault_injector``
    observers  ``invariant_checker``, ``replicator``, ``elastic_scaler``;
               every lifecycle observer subscribed to the controller
    ========== =====================================================

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
            getattr(self, f"_build_{stage}")()
            hook = self._stage_hooks.get(stage)
            if hook is not None:
                hook(self)
        self._ran = False

    # ------------------------------------------------------------------
    # Build stages (hook point after each; see class docstring)
    # ------------------------------------------------------------------
    def _build_rng(self) -> None:
        """Seeded randomness and the event engine.

        After: ``self.streams`` (named substream factory rooted at
        ``config.seed``), ``self.engine``, and a fresh request-id space.
        """
        # Request ids restart at zero per Simulation: ids seed per-request
        # RNG substreams (retry jitter), so a process-global counter
        # would make results depend on how many runs a reused sweep
        # worker had already executed.
        reset_request_ids()
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
        nothing wired to serve them yet.
        """
        config = self.config
        policy_cls = PLACEMENTS[config.placement]
        #: Kept for membership lifecycle hooks (warm_targets /
        #: on_server_depart) — the elastic scaler consults it.
        self.placement_policy = policy_cls()
        self.placement_result: PlacementResult = self.placement_policy.allocate(
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
        system = config.system
        receive_bw = (
            config.client_receive_bandwidth
            if config.client_receive_bandwidth is not None
            else system.client_receive_bandwidth
        )
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

    def _build_prefix(self) -> None:
        """Prefix-cache / stream-sharing tier (repro.prefix).

        After: ``self.prefix_tier`` with cache warming scheduled — or
        None when ``config.prefix`` is unset.  It fronts nothing until
        the ``observers`` stage subscribes it to the controller.
        """
        config = self.config
        self.prefix_tier: Optional[PrefixTier] = None
        if config.prefix is None:
            return
        self.prefix_tier = PrefixTier(
            engine=self.engine,
            controller=self.controller,
            catalog=self.catalog,
            popularity=self.popularity,
            placement=self.placement_result.placement,
            placement_policy=self.placement_policy,
            policy=config.prefix,
            strict=config.invariants or obs.env_invariants_enabled(),
            tracer=self.tracer,
        )
        self.prefix_tier.start()

    def _build_workload(self) -> None:
        """Request generation.

        After: ``self.arrival_rate`` (calibrated to ``config.load``),
        ``self._arrivals`` (the registered arrival process feeding
        ``controller.submit``) and ``self.interactivity`` (the VCR
        pause/resume model, or None).
        """
        config = self.config
        self.interactivity = None
        if config.pause_hazard > 0.0:
            from repro.workload.interactivity import InteractivityModel

            self.interactivity = InteractivityModel(
                engine=self.engine,
                controller=self.controller,
                rng=self.streams.get("interactivity"),
                pause_hazard=config.pause_hazard,
                mean_pause_duration=config.mean_pause,
            )

        self.arrival_rate = calibrated_arrival_rate(
            self.popularity,
            self.catalog,
            config.system.total_bandwidth,
            load=config.load,
        )
        arrival_cls = ARRIVALS[config.arrivals]
        self._arrivals = arrival_cls(
            engine=self.engine,
            rate=self.arrival_rate,
            popularity=self.popularity,
            rng=self.streams.get("arrivals"),
            on_arrival=self.controller.submit,
            **dict(config.arrival_params),
        )

    def _build_faults(self) -> None:
        """Robustness layer (repro.faults).

        After: ``self.failover`` (built whenever chaos or a retry
        queue needs it), ``self.retry_queue`` and
        ``self.fault_injector`` (strictly opt-in, already started).
        """
        config = self.config
        inject = config.faults is not None and not config.faults.empty
        self.failover: Optional[FailoverManager] = None
        if inject or config.retry is not None:
            self.failover = FailoverManager(
                engine=self.engine,
                servers=self.controller.servers,
                managers=self.controller.managers,
                placement=self.placement_result.placement,
                metrics=self.metrics,
                on_drop=self.controller.on_drop,
                tracer=self.tracer,
            )
        self.retry_queue: Optional[RetryQueue] = None
        if config.retry is not None:
            self.retry_queue = RetryQueue(
                engine=self.engine,
                controller=self.controller,
                streams=self.streams,
                policy=config.retry,
                tracer=self.tracer,
            )
        self.fault_injector: Optional[FaultInjector] = None
        if inject:
            self.fault_injector = FaultInjector(
                engine=self.engine,
                failover=self.failover,
                streams=self.streams,
                plan=config.faults,
                catalog=self.catalog,
                metrics=self.metrics,
            )
            self.fault_injector.start()

    def _build_observers(self) -> None:
        """Online checks, the last observers, and every subscription.

        After: ``self.invariant_checker`` (opt-in conservation checks),
        ``self.replicator`` (the dynamic-replication extension),
        ``self.elastic_scaler``, and the controller's ``intercept`` /
        ``on_decision`` / ``on_finish`` / ``on_drop`` filled in.
        """
        config = self.config
        self.invariant_checker: Optional[InvariantChecker] = None
        if config.invariants or obs.env_invariants_enabled():
            self.invariant_checker = InvariantChecker(
                self.engine, self.controller, tracer=self.tracer
            )
            self.invariant_checker.attach()

        self.replicator: Optional[DynamicReplicator] = None
        if config.replication is not None:
            self.replicator = DynamicReplicator(
                engine=self.engine,
                servers=self.controller.servers,
                placement=self.placement_result.placement,
                catalog=self.catalog,
                policy=config.replication,
            )

        self.elastic_scaler: Optional[ElasticScaler] = None
        if config.elastic is not None:
            self.elastic_scaler = ElasticScaler(
                engine=self.engine,
                controller=self.controller,
                membership=self.membership,
                placement=self.placement_result.placement,
                catalog=self.catalog,
                popularity=self.popularity,
                placement_policy=self.placement_policy,
                policy=config.elastic,
                streams=self.streams,
                calibration=config.calibration,
                tracer=self.tracer,
            )
            self.elastic_scaler.start()

        # Subscription order is notification order, and load-bearing.
        # The tier is first: it restores a rejected patch to the full
        # transfer before the retry queue queues it, and severs a
        # dropped parent's chains before the parent is re-queued.  The
        # rest schedule engine events from inside the notification (VCR
        # pause, retry backoff, replica copy, scale-out), so their
        # order fixes same-instant sequence numbers — every digest.
        for observer in (
            self.prefix_tier, self.interactivity, self.retry_queue,
            self.replicator, self.elastic_scaler,
        ):
            if observer is not None:
                self.controller.subscribe(observer)

    @property
    def metrics(self) -> SimulationMetrics:
        return self.controller.metrics

    def run(self) -> SimulationResult:
        """Advance the engine for ``duration`` seconds and measure."""
        if self._ran:
            raise RuntimeError("Simulation objects are single-use")
        self._ran = True
        cfg = self.config
        if self.profiler is not None:
            self.profiler.attach(self.engine)
        try:
            if cfg.warmup > 0.0:
                # Run the ramp-in, settle the transfer accounting at the
                # warmup instant, then discard everything measured so
                # far.  (The tracer is deliberately *not* cleared: the
                # ramp-in records are part of the debugging story.)
                self.engine.run_until(cfg.warmup)
                for manager in self.controller.managers.values():
                    manager.flush(cfg.warmup)
                self.metrics.reset()
            self.engine.run_until(cfg.duration)
        finally:
            if self.profiler is not None:
                self.profiler.detach()
        self._arrivals.stop()
        if self.invariant_checker is not None:
            self.invariant_checker.check_now()
        if self.prefix_tier is not None:
            self.prefix_tier.check_invariants(cfg.duration)
        self.controller.finalize(cfg.duration)
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
        window = cfg.duration - cfg.warmup
        pending = self.retry_queue.pending if self.retry_queue else 0
        return SimulationResult(
            config=cfg,
            utilization=metrics.utilization(total_bw, window),
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


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """One-shot convenience wrapper."""
    return Simulation(config).run()
