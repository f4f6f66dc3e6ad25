"""In-simulation metrics: the Section 4.1 measurement model.

"We measure the performance of the system in terms of bandwidth
utilization and request rejections.  That is, we sum the size of all
transmissions and divide that number by the total amount of data which
could be sent if all servers were sending data at the maximum bandwidth
for the duration of the simulation."

:class:`SimulationMetrics` is the concrete sink the transmission layer
reports into; :class:`MetricsSink` is the minimal protocol, so tests
can plug in recording fakes.

The fields *are read by* named instruments of the metrics'
:class:`repro.obs.registry.MetricsRegistry` (``requests.*`` and the
other run counters, ``server.<id>.rejections``, ``faults.<kind>``) so
downstream tooling can read one ``snapshot()`` dict; the fields stay
the only copy of the counts, so counting on the event path is field
arithmetic and nothing more.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Dict, Optional, Protocol, Sequence
from weakref import proxy

from repro.obs.registry import MetricsRegistry

#: The run counters a registry reads: instrument name -> field.
_RUN_COUNTERS: Dict[str, str] = {
    "requests.arrivals": "arrivals",
    "requests.accepted": "accepted",
    "requests.rejected": "rejected",
    "requests.rejected_no_replica": "rejected_no_replica",
    "requests.finished": "finished",
    "requests.dropped": "dropped",
    "drm.migrations": "migrations",
    "drm.attempts": "migration_attempts",
    "retry.scheduled": "retries",
    "retry.succeeded": "retry_successes",
    "retry.exhausted": "retry_exhausted",
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "cache.chained": "chained",
    "cache.patched": "patched",
    "cache.megabits_served": "cache_megabits",
}


class MetricsSink(Protocol):
    """What the transmission layer needs from a metrics object."""

    def record_bytes(
        self, server_id: Optional[int], megabits: float, now: float
    ) -> None:
        """Attribute *megabits* of transfer to *server_id* at time *now*."""
        ...  # pragma: no cover - protocol


@dataclass
class SimulationMetrics:
    """Counters for one simulation run.

    All byte quantities are megabits.  ``bytes_per_server`` attributes
    transfers to the server that performed them (migrated streams split
    naturally across their hosts).
    """

    total_megabits: float = 0.0
    bytes_per_server: Dict[int, float] = field(default_factory=dict)

    arrivals: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_no_replica: int = 0

    migrations: int = 0
    migration_attempts: int = 0
    migration_chains_found: int = 0

    finished: int = 0
    dropped: int = 0

    #: Always 0 — every allocator is minimum-flow, so nothing writes it.
    #: It, ``SimulationResult.underruns`` and the bridge's ``"underruns"``
    #: key stay only because ``bench/`` and ``repro verify`` read them.
    underruns: int = 0

    #: Graceful-degradation accounting (``repro.faults.retry``): every
    #: resubmission attempt is *also* counted in ``arrivals`` (so the
    #: accepted + rejected == arrivals identity holds per attempt);
    #: ``retries`` lets distinct-request measures subtract them out.
    retries: int = 0
    retry_successes: int = 0       #: resubmissions that were admitted
    retry_exhausted: int = 0       #: requests abandoned (max attempts
    #: reached or bounded queue overflow) — permanently denied service.

    #: Fault-injection accounting (``repro.faults.injector``).
    faults_injected: int = 0

    #: Prefix-cache tier accounting (:mod:`repro.prefix`).  A *hit* is
    #: an arrival whose video had a warmed prefix in the cache at
    #: decision time, a *miss* the complement; ``chained`` counts
    #: shared sessions admitted without a dedicated server stream,
    #: ``patched`` the subset that additionally needed a truncated
    #: catch-up transfer.  ``cache_megabits`` is prefix data served
    #: from the proxy tier — deliberately *not* part of
    #: ``total_megabits``, which measures server egress only.
    cache_hits: int = 0
    cache_misses: int = 0
    chained: int = 0
    patched: int = 0
    cache_megabits: float = 0.0

    #: Saturation attribution: how often each server was a full replica
    #: holder at the moment a request was turned away.
    rejections_per_server: Dict[int, int] = field(default_factory=dict)
    #: ``faults_injected`` by fault kind.
    faults_per_kind: Dict[str, int] = field(default_factory=dict)

    #: The obs registry that reads the counts (see module docstring).
    #: Excluded from equality/repr: it is wiring, not data.
    registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Everything a record_* method touches is bound here, once.  The
        # suppliers read these fields weakly: the registry is ours, so a
        # strong read would make every run a reference cycle.
        registry = self.registry
        owner = proxy(self)
        for name, attr in _RUN_COUNTERS.items():
            registry.counter(name, supplier=partial(getattr, owner, attr))
        self._chain_lengths = registry.histogram("drm.chain_length")
        self._backoffs = registry.histogram("retry.backoff_seconds")
        self._counter = registry.counter

    def _register_key(self, template: str, attr: str, key) -> None:
        """*key* is new in the per-key dict *attr*: register the counter
        ``template.format(key)`` that reads its entry (weakly, like the
        run counters)."""
        owner = proxy(self)
        self._counter(
            template.format(key),
            supplier=lambda: getattr(owner, attr).get(key, 0),
        )

    def reset(self) -> None:
        """Zero every counter (used at the end of a warmup window so
        measurements cover only the steady state)."""
        for f in fields(self):
            if f.name != "registry":
                setattr(
                    self, f.name,
                    f.default if f.default is not MISSING else f.default_factory(),
                )
        self.registry.reset()

    # ------------------------------------------------------------------
    # Transfer accounting
    # ------------------------------------------------------------------
    def record_bytes(
        self, server_id: Optional[int], megabits: float, now: float
    ) -> None:
        """MetricsSink implementation (``now`` kept for tracing hooks)."""
        if megabits < 0:
            raise ValueError(f"negative transfer: {megabits}")
        self.total_megabits += megabits
        if server_id is not None:
            self.bytes_per_server[server_id] = (
                self.bytes_per_server.get(server_id, 0.0) + megabits
            )

    # ------------------------------------------------------------------
    # Admission accounting
    # ------------------------------------------------------------------
    def record_arrival(self) -> None:
        self.arrivals += 1

    def record_accept(self) -> None:
        self.accepted += 1

    def record_reject(
        self, no_replica: bool = False, holders: Sequence[int] = ()
    ) -> None:
        """Count one rejection.

        Args:
            no_replica: no live server held the video at all.
            holders: server ids of the (saturated) replica holders that
                could not take the request — attributed per server.
        """
        self.rejected += 1
        if no_replica:
            self.rejected_no_replica += 1
        per_server = self.rejections_per_server
        for server_id in holders:
            count = per_server.get(server_id)
            if count is None:
                count = 0
                self._register_key(
                    "server.{}.rejections", "rejections_per_server", server_id
                )
            per_server[server_id] = count + 1

    def record_migration(self, chain_length: int) -> None:
        """A successful DRM chain of the given length executed."""
        self.migrations += chain_length
        self.migration_chains_found += 1
        self._chain_lengths.observe(chain_length)

    def record_migration_attempt(self) -> None:
        self.migration_attempts += 1

    def record_relocation(self) -> None:
        """One orphaned stream moved to a new home (failover / shedding),
        counted in ``migrations`` like any other stream move."""
        self.migrations += 1

    def record_finish(self) -> None:
        """A stream completed transmission and playback hand-off."""
        self.finished += 1

    def record_drop(self) -> None:
        """A live stream was lost (server failure with no rescue slot)."""
        self.dropped += 1

    # ------------------------------------------------------------------
    # Graceful degradation / fault injection
    # ------------------------------------------------------------------
    def record_retry(self, backoff: float) -> None:
        """One resubmission attempt scheduled after *backoff* seconds."""
        self.retries += 1
        self._backoffs.observe(backoff)

    def record_retry_success(self) -> None:
        """A resubmitted request was admitted."""
        self.retry_successes += 1

    def record_retry_exhausted(self) -> None:
        """A request was permanently abandoned by the retry queue."""
        self.retry_exhausted += 1

    def record_fault(self, kind: str) -> None:
        """One injected fault of *kind* (``crash``/``degrade``/...)."""
        self.faults_injected += 1
        count = self.faults_per_kind.get(kind)
        if count is None:
            count = 0
            self._register_key("faults.{}", "faults_per_kind", kind)
        self.faults_per_kind[kind] = count + 1

    # ------------------------------------------------------------------
    # Prefix-cache tier (repro.prefix)
    # ------------------------------------------------------------------
    def record_cache_lookup(self, hit: bool) -> None:
        """One arrival checked against the prefix cache."""
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def record_chained(self, patched: bool, prefix_mb: float) -> None:
        """One arrival admitted as a shared (chained) session, with
        *prefix_mb* of prefix data served from the cache tier (not
        server egress).  A pure chain never reaches admission, so it is
        counted here as an arrival and an acceptance as well; admission
        counted a patch chain's."""
        if prefix_mb < 0:
            raise ValueError(f"negative transfer: {prefix_mb}")
        self.chained += 1
        self.cache_megabits += prefix_mb
        if patched:
            self.patched += 1
        else:
            self.arrivals += 1
            self.accepted += 1

    # ------------------------------------------------------------------
    # Derived measures
    # ------------------------------------------------------------------
    def utilization(self, total_bandwidth: float, duration: float) -> float:
        """Data sent over data sendable (Section 4.1's definition)."""
        if total_bandwidth <= 0 or duration <= 0:
            raise ValueError(
                f"need positive capacity and duration, got "
                f"{total_bandwidth}, {duration}"
            )
        return self.total_megabits / (total_bandwidth * duration)

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of arrivals admitted (1.0 when nothing arrived)."""
        return self.accepted / self.arrivals if self.arrivals else 1.0

    @property
    def rejection_ratio(self) -> float:
        return self.rejected / self.arrivals if self.arrivals else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 with no tier)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def distinct_arrivals(self) -> int:
        """Arrivals net of retry resubmissions (one per real viewer)."""
        return self.arrivals - self.retries

    def availability(self, pending_retries: int = 0) -> float:
        """Fraction of distinct requests not permanently denied service.

        With a retry queue attached every rejection/drop re-enters the
        queue, so the only permanently lost requests are the exhausted
        ones plus whatever is still *pending* in the queue at the end of
        the run (conservatively counted as denied).  Without a retry
        queue this degenerates to ``1 - (rejected + dropped)/arrivals``.
        """
        distinct = self.distinct_arrivals
        if distinct <= 0:
            return 1.0
        if self.retries or self.retry_exhausted or pending_retries:
            denied = self.retry_exhausted + pending_retries
        else:
            denied = self.rejected + self.dropped
        return max(0.0, 1.0 - denied / distinct)

    def sanity_check(self) -> None:
        """Internal-consistency assertions (used by tests and at the end
        of every run)."""
        if self.accepted + self.rejected != self.arrivals:
            raise AssertionError(
                f"accepted({self.accepted}) + rejected({self.rejected}) "
                f"!= arrivals({self.arrivals})"
            )
        per_server_sum = sum(self.bytes_per_server.values())
        if abs(per_server_sum - self.total_megabits) > 1e-3:
            raise AssertionError(
                f"per-server bytes {per_server_sum} != total "
                f"{self.total_megabits}"
            )
