"""The prefix-cache / stream-sharing tier: config and runtime.

:class:`PrefixPolicy` is the frozen config block (serialized by
:class:`repro.serialize.Config`, like every other config);
:class:`PrefixTier` is the runtime that sits between the distribution
controller's front door and normal admission
(``controller.subscribe(tier)``):

* at build time it computes its replication plan, once (via the
  :data:`~repro.prefix.cache.PREFIX_STRATEGIES` strategy named in the
  config), and warms the cache in plan order through the engine at
  disk throughput;
* on each arrival the controller offers it the request first
  (:meth:`PrefixTier.intercept`) — the active
  :data:`~repro.prefix.chaining.BATCHING` policy decides whether to
  chain it onto a live stream, open a truncated catch-up patch, or
  decline and let normal admission run;
* it hears every decision (:meth:`PrefixTier.on_decision`) to track
  stream leaders and commit patch chains, and every finish / drop
  (:meth:`PrefixTier.on_finish`, :meth:`PrefixTier.on_drop`) to
  complete or sever chains coherently (a DRM-migrated
  parent drags its children along for free — the relay follows the
  parent's *playout*, which migration never disturbs).

Chained sessions never occupy a server slot: the tier records their
arrival/acceptance itself and owns their lifecycle end-to-end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Any, Deque, Dict, List, Optional, Set, Tuple
from weakref import proxy

from repro.cluster.profile import DEFAULT_DISK_THROUGHPUT
from repro.cluster.request import EPS_MB, Request, RequestState
from repro.core.admission import AdmissionOutcome
from repro.faults.invariants import InvariantViolation
from repro.obs.records import TraceKind
from repro.prefix.cache import PREFIX_STRATEGIES, PrefixCache
from repro.prefix.chaining import BATCHING, ChainedSession
from repro.serialize import Config
from repro.workload.catalog import Video


@dataclass(frozen=True)
class PrefixPolicy(Config):
    """Configuration of the prefix-cache / stream-sharing tier.

    Attributes:
        strategy: replication strategy name from
            :data:`~repro.prefix.cache.PREFIX_STRATEGIES`.
        batching: chaining admission policy name from
            :data:`~repro.prefix.chaining.BATCHING`.
        capacity_mb: total cache budget for warmed prefixes, Mb.
        prefix_seconds: how much of each video's head a full prefix
            holds, seconds of playback.
        window_seconds: maximum join gap behind a live stream for
            chaining to be considered.
    """

    strategy: str = "popularity"
    batching: str = "window"
    capacity_mb: float = 50_000.0
    prefix_seconds: float = 300.0
    window_seconds: float = 120.0

    def __post_init__(self) -> None:
        PREFIX_STRATEGIES.get(self.strategy)
        BATCHING.get(self.batching)
        if self.capacity_mb < 0:
            raise ValueError(
                f"capacity_mb must be >= 0, got {self.capacity_mb}"
            )
        if self.prefix_seconds <= 0:
            raise ValueError(
                f"prefix_seconds must be positive, got {self.prefix_seconds}"
            )
        if self.window_seconds < 0:
            raise ValueError(
                f"window_seconds must be >= 0, got {self.window_seconds}"
            )


class PrefixTier:
    """Runtime of the proxy tier for one simulation.

    Built by :class:`~repro.simulation.Simulation` from its products
    (engine, controller, catalog and the ``prefix`` config block),
    with its replication plan computed and warming begun.  ``strict``
    (the run has an invariant checker) raises
    :class:`InvariantViolation` on a chained-session underrun, which
    is otherwise only counted.
    """

    def __init__(self, sim) -> None:
        config = sim.config
        self.engine = sim.engine
        self.controller = controller = sim.controller
        self.catalog = sim.catalog
        self.policy: PrefixPolicy = config.prefix
        self.strict = sim.invariant_checker is not None
        self.tracer = sim.tracer
        self.metrics = controller.metrics
        self.cache = PrefixCache()
        self._batching = BATCHING.get(self.policy.batching)
        #: Newest accepted (server-backed) stream per video id.
        self._leaders: Dict[int, Request] = {}
        #: Committed chains by child request id.
        self._chains: Dict[int, ChainedSession] = {}
        #: Live chains by parent request id (drop cascade / finish fanout).
        self._children: Dict[int, List[ChainedSession]] = {}
        #: Parents whose playout-end event is on the agenda.
        self._finishing: Set[int] = set()
        #: Patch chains awaiting their admission decision.
        self._pending: Dict[int, ChainedSession] = {}
        #: Ids of requests admitted as patch chains — never promoted to leader.
        self._chained_ids: Set[int] = set()
        #: Chained sessions whose delivery dipped below playout (should
        #: stay 0 — the acceptance gate of the ISSUE of record).
        self.chain_underruns = 0
        #: Shared feeds lost to a parent drop.
        self.feeds_severed = 0
        # Read weakly: the registry is reached from here (controller).
        registry, tier = self.metrics.registry, proxy(self)
        registry.gauge(
            "cache.bytes_held_mb", supplier=lambda: tier.cache.bytes_held
        )
        registry.gauge(
            "cache.chained_active", supplier=lambda: float(tier.chained_active)
        )
        #: The replication plan, ``{video_id: Mb}`` in warming order.
        self.plan = PREFIX_STRATEGIES.get(self.policy.strategy)(self)
        self._warm_queue: Deque[Tuple[int, float]] = deque(self.plan.items())
        self._warm_next()

    @property
    def chained_active(self) -> int:
        """Chained sessions whose shared feed is still delivering."""
        return len(self._chains)

    # ------------------------------------------------------------------
    # Cache warming
    # ------------------------------------------------------------------
    def _disk_throughput(self) -> float:
        rates = [
            s.disk_throughput for s in self.controller.servers.values() if s.up
        ]
        if not rates:
            return DEFAULT_DISK_THROUGHPUT
        return sum(rates) / len(rates)

    def _warm_next(self) -> None:
        """Warm the next prefix of the plan: one at a time, at disk
        throughput (the proxy has one ingest path)."""
        if not self._warm_queue:
            return
        video_id, mb = self._warm_queue.popleft()
        seconds = mb / self._disk_throughput()
        self.engine.schedule(
            seconds,
            lambda: self._finish_warm(video_id, mb, seconds),
            kind="cache:warm",
        )

    def _finish_warm(self, video_id: int, mb: float, seconds: float) -> None:
        self.cache.entries[video_id] = mb
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.CACHE_WARM, self.engine.now,
                video=video_id, prefix_mb=round(mb, 6),
                seconds=round(seconds, 6),
            )
        self._warm_next()

    # ------------------------------------------------------------------
    # Admission path
    # ------------------------------------------------------------------
    def _live_leader(self, video_id: int) -> Optional[Request]:
        """The chainable stream for *video_id*, or None.

        A leader stays chainable after its *transmission* finishes — the
        relay follows its playout, which runs to ``playback_start +
        length`` — but not once it pauses playback (the relay schedule
        would stall) or is dropped/rejected.
        """
        leader = self._leaders.get(video_id)
        if leader is None or leader.playback_pause_time != inf:
            return None
        if leader.state is RequestState.ACTIVE:
            if leader.server_id is None:
                return None  # dropped and awaiting re-admission (retry queue)
        elif leader.state is not RequestState.FINISHED:
            return None
        return leader

    def intercept(
        self, request: Request, now: float
    ) -> Optional[AdmissionOutcome]:
        """Offer an arriving *request* to the tier (controller front door).

        Returns ``ACCEPTED_CHAINED`` for a pure chain (the request never
        reaches normal admission), or None to fall through — possibly
        with the request truncated to a catch-up patch, in which case
        :meth:`on_decision` completes or cancels the chain once the
        admission decision lands.
        """
        video_id = request.video.video_id
        prefix_mb = self.cache.warmed_mb(video_id)
        self.metrics.record_cache_lookup(hit=prefix_mb > 0.0)
        leader = self._live_leader(video_id)
        if leader is None:
            return None
        plan = self._batching(
            self, request, now - leader.playback_start, prefix_mb
        )
        if plan is None:
            return None
        chain = ChainedSession(request, leader, request.video, now, plan)
        chain.parent_finished = leader.state is RequestState.FINISHED
        if plan.patch_mb > EPS_MB:
            # Truncate the transfer to the patch and fall through to
            # normal admission; the full Video is kept on the chain.
            patch = Video(
                video_id=video_id,
                length=plan.patch_mb / request.view_bandwidth,
                view_bandwidth=request.view_bandwidth,
            )
            request.set_video(patch)
            self._pending[request.request_id] = chain
            return None
        self._commit(chain, now, patched=False)
        return AdmissionOutcome.ACCEPTED_CHAINED

    def on_decision(self, outcome: AdmissionOutcome, request: Request) -> None:
        """Controller notification: commit/cancel pending patch chains
        and track stream leaders.  Subscribed first: the retry queue
        must see a rejected patch already restored to the full video."""
        if outcome is AdmissionOutcome.ACCEPTED_CHAINED:
            return  # a pure chain: committed in intercept, never a leader
        chain = self._pending.pop(request.request_id, None)
        now = self.engine.now
        if chain is not None:
            if outcome.accepted:
                self._chained_ids.add(request.request_id)
                self._commit(chain, now, patched=True)
            else:
                # Rejected patch: restore the full transfer so a retry
                # queue resubmits the real request.
                request.set_video(chain.video)
            return
        if (
            outcome.accepted
            and request.server_id is not None
            and request.request_id not in self._chained_ids
        ):
            self._leaders[request.video.video_id] = request

    def _commit(
        self, chain: ChainedSession, now: float, patched: bool
    ) -> None:
        child = chain.child
        self._chains[child.request_id] = chain
        self._children.setdefault(chain.parent.request_id, []).append(chain)
        prefix_mb = chain.plan.prefix_mb
        served = prefix_mb if prefix_mb > EPS_MB else 0.0
        self.metrics.record_chained(patched, served)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.CACHE_CHAIN, now,
                request=child.request_id,
                parent=chain.parent.request_id,
                video=chain.video.video_id,
                gap=round(chain.plan.gap_seconds, 6),
                prefix_mb=round(chain.plan.prefix_mb, 6),
                patch_mb=round(chain.plan.patch_mb, 6),
            )
        self._check_chain(chain, now)
        if chain.parent_finished and chain.merged:
            self._schedule_child_finish(chain)

    # ------------------------------------------------------------------
    # Lifecycle notifications
    # ------------------------------------------------------------------
    def on_finish(self, request: Request, now: float) -> None:
        """Controller notification: patch completions + parent
        transmission completions."""
        chain = self._chains.get(request.request_id)
        if chain is not None and not chain.merged:
            chain.merged = True
            if self.tracer is not None:
                self.tracer.emit(
                    TraceKind.CACHE_MERGE, now,
                    request=request.request_id,
                    parent=chain.parent.request_id,
                    video=chain.video.video_id,
                )
            self._check_chain(chain, now)
            if chain.parent_finished:
                self._schedule_child_finish(chain)
        merged = None
        for child_chain in self._children.get(request.request_id, ()):
            child_chain.parent_finished = True
            if child_chain.merged:
                merged = child_chain
        if merged is not None:
            # un-merged patch chains reschedule at merge time
            self._schedule_child_finish(merged)

    def on_drop(self, request: Request) -> None:
        """Controller notification: sever chains touching *request*."""
        now = self.engine.now
        chain = self._chains.pop(request.request_id, None)
        if chain is not None and not chain.finished:
            # A chained child's *patch* stream was dropped mid-flight:
            # with its feed gone, restore the full transfer (as for a
            # rejected patch) so a retry queue resubmits the real
            # request, which may then lead streams of its own.
            chain.severed_at = now
            self.feeds_severed += 1
            siblings = self._children.get(chain.parent.request_id)
            if siblings and chain in siblings:
                siblings.remove(chain)
                if not siblings:  # the list goes with its last chain
                    del self._children[chain.parent.request_id]
            request.set_video(chain.video)
            self._chained_ids.discard(request.request_id)
        children = self._children.pop(request.request_id, None)
        for child_chain in children or []:
            if child_chain.finished or child_chain.severed_at is not None:
                continue
            child_chain.severed_at = now
            self.feeds_severed += 1
            child = child_chain.child
            self._chains.pop(child.request_id, None)
            self._pending.pop(child.request_id, None)
            if child.state is RequestState.ACTIVE and child.server_id is None:
                # Pure chained session: lost with its parent.  (Patch
                # children keep their own server stream; only the
                # shared remainder is lost.)
                child.mark_dropped(now)
                self.metrics.record_drop()
                if self.tracer is not None:
                    self.tracer.emit(
                        TraceKind.REQUEST_DROP, now,
                        request=child.request_id, server=None,
                    )

    def _schedule_child_finish(self, chain: ChainedSession) -> None:
        """Put *chain*'s parent's playout-end event on the agenda, once.

        Every child of one parent stops being fed at the same instant
        (its ``delivery_end``), so one event finishes them all.  A patch
        that merges after that event has fired gets one of its own, at
        once.
        """
        parent_id = chain.parent.request_id
        if parent_id in self._finishing:
            return
        self._finishing.add(parent_id)
        self.engine.schedule(
            max(0.0, chain.delivery_end - self.engine.now),
            lambda: self._finish_children(parent_id),
            kind="cache:chain_finish",
        )

    def _finish_children(self, parent_id: int) -> None:
        """Finish every merged child of *parent_id*, in sibling order.

        The parent has finished, so it is never dropped: its list is
        still here, and it keeps only the patches yet to merge.
        """
        self._finishing.discard(parent_id)
        siblings = self._children[parent_id]
        now = self.engine.now
        for chain in siblings:
            if not chain.merged or chain.finished or chain.severed_at is not None:
                continue
            chain.finished = True
            child = chain.child
            self._check_chain(chain, now)
            self._chains.pop(child.request_id, None)
            self._chained_ids.discard(child.request_id)  # never decided again
            if child.state is RequestState.ACTIVE and child.server_id is None:
                # Pure chained session: the tier owns its whole lifecycle.
                # (Patch children were already finished by their manager.)
                child.mark_finished(now)
                self.metrics.record_finish()
                if self.tracer is not None:
                    self.tracer.emit(
                        TraceKind.REQUEST_FINISH, now,
                        request=child.request_id, server=None,
                    )
        left = [chain for chain in siblings if not chain.finished]
        if left:
            self._children[parent_id] = left
        else:
            del self._children[parent_id]

    # ------------------------------------------------------------------
    # Invariants / introspection
    # ------------------------------------------------------------------
    def _check_chain(self, chain: ChainedSession, now: float) -> None:
        margin = chain.margin(now)
        if margin >= -1e-3:
            return
        self.chain_underruns += 1
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.INVARIANT_VIOLATION, now,
                invariant="chain_no_underrun",
                subject=f"request {chain.child.request_id}",
                detail=f"delivered {-margin:.6f} Mb behind playout",
            )
        if self.strict:
            raise InvariantViolation(
                "chain_no_underrun",
                f"request {chain.child.request_id}",
                f"contiguous delivery {-margin:.6f} Mb behind playout "
                f"(parent {chain.parent.request_id}, "
                f"gap {chain.plan.gap_seconds:.3f}s)",
                now,
                [],
            )

    def check_invariants(self, now: Optional[float] = None) -> None:
        """Check the no-underrun invariant on every live chain (tests
        and end-of-run sweeps call this liberally)."""
        at = self.engine.now if now is None else now
        for chain in list(self._chains.values()):
            if not chain.finished and chain.severed_at is None:
                self._check_chain(chain, at)

    def stats(self) -> Dict[str, Any]:
        """Flat cache/chaining stats for the ops plane and ``repro top``."""
        m = self.metrics
        return {
            "strategy": self.policy.strategy,
            "batching": self.policy.batching,
            "capacity_mb": round(self.policy.capacity_mb, 6),
            "bytes_held_mb": round(self.cache.bytes_held, 6),
            "entries": len(self.cache.entries),
            "pending_warm": len(self.plan) - len(self.cache.entries),
            "hits": m.cache_hits,
            "misses": m.cache_misses,
            "hit_rate": round(m.cache_hit_rate, 6),
            "chained": m.chained,
            "patched": m.patched,
            "chained_active": self.chained_active,
            "cache_mb_served": round(m.cache_megabits, 6),
            "underruns": self.chain_underruns,
            "severed": self.feeds_severed,
        }
