"""Elastic cluster scaling: scenario- or load-driven membership events.

The ROADMAP's autoscaling item in full: servers added or removed
*mid-run*, with replica warming onto joiners (bounded by their measured
disk throughput) and DRM draining streams off leavers before departure
— zero underruns across the transition, enforced by the online
:class:`~repro.faults.invariants.InvariantChecker`.

Scale events are ordinary virtual-time engine events, so an elastic
run replays deterministically and a live serve of the same scenario
stays byte-comparable to its virtual-time twin (the PolicyBridge
parity contract).  Two registries make the behaviour pluggable:

* :data:`SCALE_TRIGGERS` — what fires a scale-out: ``"scheduled"``
  (only the scenario's declared events) or ``"load"`` (a rejection
  burst within ``reject_window`` additionally commissions a server).
* :data:`WARMERS` — which replicas a joiner receives before
  activating: ``"popular"`` (the hottest videos that fit its disk —
  video id is demand rank, so lowest id first) or ``"none"`` (join
  empty; dynamic replication fills it).

Lifecycle (see :mod:`repro.cluster.membership`)::

    scale_out: joining -> warming -> active
    scale_in:  active  -> draining -> departed
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.membership import ServerLifecycle
from repro.cluster.profile import calibrate_server
from repro.cluster.request import Request
from repro.cluster.server import DataServer, least_loaded
from repro.core.admission import AdmissionOutcome
from repro.core.migration import (
    RESCUE_POLICY,
    execute_chain,
    find_migration_chain,
)
from repro.obs.records import TraceKind
from repro.registry import Registry
from repro.serialize import Config

#: What fires scale-outs beyond the scenario's declared events.  A
#: registry value is a factory ``(scaler) -> handler | None``; the
#: handler becomes the scaler's ``on_decision`` and so hears every
#: admission decision once the scaler is subscribed to the controller.
SCALE_TRIGGERS: Registry = Registry("scale trigger")

#: How a joiner is seeded with replicas before activating.  A registry
#: value is ``(scaler, server) -> [video ids]``.
WARMERS: Registry = Registry("replica warmer")


def _scheduled_trigger(scaler: "ElasticScaler"):
    """Only the scenario's declared events scale the cluster."""
    return None


def _load_trigger(scaler: "ElasticScaler"):
    """Rejection bursts commission a server (flash-crowd response)."""
    return scaler._observe_rejection


SCALE_TRIGGERS.register(
    "scheduled", _scheduled_trigger,
    help="scale only at the scenario's declared event times",
)
SCALE_TRIGGERS.register(
    "load", _load_trigger,
    help="additionally scale out on a rejection burst "
         "(reject_threshold rejections within reject_window seconds)",
)


def _warm_popular(scaler: "ElasticScaler", server: DataServer) -> List[int]:
    """The hottest videos *server* does not hold, as many as fit its free
    disk, up to ``warm_fraction`` of the catalog.  Video id is demand
    rank (the Zipf model's order), so hottest first is lowest id first."""
    catalog = scaler.catalog
    limit = max(1, int(round(scaler.policy.warm_fraction * len(catalog))))
    targets: List[int] = []
    budget = server.storage_free
    for vid in range(len(catalog)):
        if len(targets) >= limit:
            break
        if server.holds(vid):
            continue
        size = catalog[vid].size
        if size > budget:
            continue
        targets.append(vid)
        budget -= size
    return targets


def _warm_none(scaler: "ElasticScaler", server: DataServer) -> List[int]:
    """Join empty; dynamic replication (or nothing) fills the disk."""
    return []


WARMERS.register(
    "popular", _warm_popular,
    help="warm the hottest videos that fit (lowest id first, "
         "warm_fraction of the catalog)",
)
WARMERS.register(
    "none", _warm_none,
    help="activate immediately with an empty disk",
)


@dataclass(frozen=True)
class ScaleEvent(Config):
    """One scenario-declared membership change: one server joins or
    leaves.  A joiner gets the seed cluster's mean link and disk.

    Attributes:
        time: virtual seconds at which the event fires.
        action: ``"scale_out"`` or ``"scale_in"``.
        server_id: the specific server to drain (scale_in only;
            defaults to the highest-id active member).
    """

    time: float
    action: str
    server_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.action not in ("scale_out", "scale_in"):
            raise ValueError(
                f"action must be 'scale_out' or 'scale_in', "
                f"got {self.action!r}"
            )


@dataclass(frozen=True)
class ElasticPolicy(Config):
    """Configuration of the elastic scaler.

    Attributes:
        events: scenario-declared :class:`ScaleEvent` schedule.
        trigger: :data:`SCALE_TRIGGERS` key.
        warmer: :data:`WARMERS` key.
        warm_fraction: catalog fraction the ``"popular"`` warmer seeds
            onto a joiner (disk permitting).
        drain_interval: virtual seconds between drain retries on a
            departing server (streams that cannot move yet are retried,
            never dropped).
        reject_window: the ``"load"`` trigger's sliding window, s.
        reject_threshold: rejections within the window that fire a
            scale-out.
        cooldown: minimum virtual seconds between load-triggered
            scale-outs.
    """

    events: Tuple[ScaleEvent, ...] = ()
    trigger: str = "scheduled"
    warmer: str = "popular"
    warm_fraction: float = 0.25
    drain_interval: float = 5.0
    reject_window: float = 30.0
    reject_threshold: int = 5
    cooldown: float = 300.0

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, ScaleEvent):
                raise ValueError(
                    f"events must be ScaleEvent instances, got {event!r}"
                )
        # Registry lookups raise UnknownKeyError (a ValueError) naming
        # the valid choices — the actionable-error contract.
        SCALE_TRIGGERS.get(self.trigger)
        WARMERS.get(self.warmer)
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ValueError(
                f"warm_fraction must be in [0, 1], got {self.warm_fraction}"
            )
        if self.drain_interval <= 0:
            raise ValueError(
                f"drain_interval must be positive, got {self.drain_interval}"
            )
        if self.reject_window <= 0:
            raise ValueError(
                f"reject_window must be positive, got {self.reject_window}"
            )
        if self.reject_threshold < 1:
            raise ValueError(
                f"reject_threshold must be >= 1, got {self.reject_threshold}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


class ElasticScaler:
    """Executes membership changes against a running cluster.

    Built by :class:`~repro.simulation.Simulation` from its products
    when the config has an :class:`ElasticPolicy`, with the declared
    events scheduled and :meth:`resume_warming` hooked to the run's
    failover restores; subscribing the scaler to the controller wires
    the trigger's decision handler, if it has one.

    Attributes:
        scale_outs / scale_ins: events executed so far.
        streams_drained: streams migrated off departing servers.
    """

    def __init__(self, sim) -> None:
        self.engine = engine = sim.engine
        self.controller = sim.controller
        self.membership = sim.membership
        self.placement = sim.placement_result.placement
        self.catalog = sim.catalog
        self.policy = policy = sim.config.elastic
        self.streams = sim.streams
        self.calibration = sim.config.calibration
        self.tracer = sim.tracer
        servers = sim.controller.servers
        self._joiner_bandwidth = sum(
            s.nominal_bandwidth for s in servers.values()
        ) / len(servers)
        self._joiner_disk = sum(
            s.disk_capacity for s in servers.values()
        ) / len(servers)
        self._trigger = SCALE_TRIGGERS.get(policy.trigger)
        self._rejections: Deque[float] = deque()
        self._cooldown_until = float("-inf")
        #: Per-draining-server bookkeeping: moved count + in-flight
        #: sole-replica evacuation copies.
        self._draining: Dict[int, Dict] = {}
        #: Joiners that crashed mid-warm -> the videos still to copy,
        #: the lost copy first; :meth:`resume_warming` picks them up.
        self._stalled: Dict[int, List[int]] = {}
        self.scale_outs = 0
        self.scale_ins = 0
        self.streams_drained = 0
        for event in policy.events:
            delay = max(0.0, event.time - engine.now)
            if event.action == "scale_out":
                engine.schedule(
                    delay, self._add_server, kind="elastic:scale_out",
                )
            else:
                engine.schedule(
                    delay, lambda e=event: self._scale_in(e),
                    kind="elastic:scale_in",
                )
        if sim.failover is not None:
            sim.failover.on_restore.append(self.resume_warming)

    def _observe_rejection(
        self, outcome: AdmissionOutcome, request: Request
    ) -> None:
        if outcome is not AdmissionOutcome.REJECTED:
            return
        now = self.engine.now
        window = self._rejections
        window.append(now)
        while window and window[0] < now - self.policy.reject_window:
            window.popleft()
        if (
            len(window) >= self.policy.reject_threshold
            and now >= self._cooldown_until
        ):
            self._cooldown_until = now + self.policy.cooldown
            window.clear()
            # Scale out on a fresh engine event, not inside the
            # admission call stack — keeps decision/membership event
            # ordering identical between live and virtual runs.
            self.engine.schedule(
                0.0, self._add_server, kind="elastic:scale_out",
            )

    # ------------------------------------------------------------------
    # Scale-out: join -> warm -> activate
    # ------------------------------------------------------------------
    def _add_server(self) -> None:
        now = self.engine.now
        sid = max(self.controller.servers) + 1
        bandwidth, disk = self._joiner_bandwidth, self._joiner_disk
        server = DataServer(sid, bandwidth, disk)
        if self.calibration is not None:
            # Joiners are calibrated on their own substream so the probe
            # draws never shift the seed cluster's profile.
            server.apply_profile(
                calibrate_server(
                    sid, bandwidth, disk, self.calibration,
                    self.streams.get(f"calibrate.join.{sid}"),
                )
            )
        server.accepting = False
        self.controller.add_server(server)
        self.membership.register(sid, ServerLifecycle.JOINING)
        self.scale_outs += 1
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_JOIN, now,
                server=sid, bandwidth=server.bandwidth,
                disk=server.disk_capacity, epoch=self.membership.epoch,
            )
        targets = WARMERS.get(self.policy.warmer)(self, server)
        if targets:
            self.membership.transition(sid, ServerLifecycle.WARMING)
            self._warm_next(sid, list(targets))
        else:
            self._activate(sid)

    def _warm_next(self, sid: int, remaining: List[int]) -> None:
        server = self.controller.servers[sid]
        while remaining:
            vid = remaining[0]
            video = self.catalog[vid]
            if server.can_store(video):
                break
            remaining.pop(0)
        if not remaining:
            self._activate(sid)
            return
        vid = remaining.pop(0)
        video = self.catalog[vid]
        # Reserve disk now (nothing else writes to a warming joiner,
        # but the reservation keeps can_store honest mid-copy), publish
        # the placement entry when the copy lands.
        server.store_replica(video)
        seconds = video.size / server.disk_throughput
        self.engine.schedule(
            seconds,
            lambda: self._finish_warm(sid, vid, seconds, remaining),
            kind=f"elastic:warm:srv{sid}",
        )

    def _finish_warm(
        self, sid: int, vid: int, seconds: float, remaining: List[int]
    ) -> None:
        server = self.controller.servers[sid]
        if not server.up:
            # Crashed mid-copy: the copy is lost, and warming waits for
            # failover to restore the server.
            server.drop_replica(self.catalog[vid])
            self._stalled[sid] = [vid] + remaining
            return
        self.placement.add_holder(vid, sid)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_WARM, self.engine.now,
                server=sid, video=vid, seconds=seconds,
            )
        self._warm_next(sid, remaining)

    def resume_warming(self, sid: int) -> None:
        """Failover restored *sid*: carry on warming it if it stalled."""
        remaining = self._stalled.pop(sid, None)
        if remaining is not None:
            self._warm_next(sid, remaining)

    def _activate(self, sid: int) -> None:
        server = self.controller.servers[sid]
        server.accepting = True
        self.membership.transition(sid, ServerLifecycle.ACTIVE)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_ACTIVATE, self.engine.now,
                server=sid, replicas=len(self.placement.videos_on(sid)),
                epoch=self.membership.epoch,
            )

    # ------------------------------------------------------------------
    # Scale-in: drain -> depart
    # ------------------------------------------------------------------
    def _scale_in(self, event: ScaleEvent) -> None:
        actives = self.membership.members(ServerLifecycle.ACTIVE)
        if len(actives) <= 1:
            return  # never drain the last active server
        sid = actives[-1] if event.server_id is None else event.server_id
        if self.membership.states.get(sid) is not ServerLifecycle.ACTIVE:
            return  # already leaving (or never joined); no-op
        self._start_drain(sid)

    def _start_drain(self, sid: int) -> None:
        now = self.engine.now
        server = self.controller.servers[sid]
        server.accepting = False
        self.membership.transition(sid, ServerLifecycle.DRAINING)
        self.scale_ins += 1
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_DRAIN, now,
                server=sid, active=server.active_count,
                epoch=self.membership.epoch,
            )
        self._draining[sid] = {"moved": 0, "evac": set()}
        self._evacuate_sole_replicas(sid)
        self._drain_tick(sid)

    def _evacuate_sole_replicas(self, sid: int) -> None:
        """Copy videos whose only replica sits on the drainer elsewhere
        before the holder entries disappear at departure."""
        info = self._draining[sid]
        for vid in self.placement.videos_on(sid):
            if self.placement.copies(vid) > 1:
                continue
            video = self.catalog[vid]
            candidates = [
                s
                for s in self.controller.servers.values()
                if s.up and s.accepting and s.can_store(video)
            ]
            if not candidates:
                continue  # retried implicitly: drain waits on evac set
            target = min(
                candidates, key=lambda s: (s.active_count, s.server_id)
            )
            target.store_replica(video)
            info["evac"].add(vid)
            seconds = video.size / target.disk_throughput
            self.engine.schedule(
                seconds,
                lambda v=vid, t=target.server_id: self._finish_evacuation(
                    sid, v, t
                ),
                kind=f"elastic:evac:srv{sid}",
            )

    def _finish_evacuation(self, sid: int, vid: int, target_id: int) -> None:
        info = self._draining.get(sid)
        target = self.controller.servers[target_id]
        if not target.up:
            target.drop_replica(self.catalog[vid])
        else:
            self.placement.add_holder(vid, target_id)
        if info is not None:
            info["evac"].discard(vid)

    def _drain_tick(self, sid: int) -> None:
        info = self._draining.get(sid)
        if info is None:
            return
        server = self.controller.servers[sid]
        if not server.up:
            # Crashed while draining: failover already rescued (or
            # dropped) its streams; finish the departure bookkeeping.
            self._depart(sid)
            return
        now = self.engine.now
        managers = self.controller.managers
        for request in list(server.iter_active()):
            if request.is_paused(now):
                continue
            target = self._direct_target(sid, request)
            if target is None:
                target = self._chain_target(sid, request, now)
            if target is None:
                continue  # retry on the next tick; never drop
            managers[sid].migrate_out(request, now)
            request.hops += 1
            managers[target.server_id].migrate_in(request, now)
            info["moved"] += 1
            self.streams_drained += 1
            self.metrics.record_relocation()
            if self.tracer is not None:
                self.tracer.emit(
                    TraceKind.REQUEST_MIGRATE, now,
                    request=request.request_id, source=sid,
                    target=target.server_id, cause="drain",
                )
        if server.active_count == 0 and not info["evac"]:
            self._depart(sid)
        else:
            self.engine.schedule(
                self.policy.drain_interval,
                lambda: self._drain_tick(sid),
                kind=f"elastic:drain:srv{sid}",
            )

    def _direct_target(
        self, sid: int, request: Request
    ) -> Optional[DataServer]:
        """Least-loaded other holder with a minimum-flow slot."""
        return least_loaded(
            self.controller.servers,
            self.placement.holders(request.video.video_id),
            request.view_bandwidth, exclude=sid,
        )

    def _chain_target(
        self, sid: int, request: Request, now: float
    ) -> Optional[DataServer]:
        """DRM fallback: displace a stream off another holder to make
        room.  The drainer is excluded from the search entirely — a
        chain must not route anything back onto it."""
        others = {
            k: v for k, v in self.controller.servers.items() if k != sid
        }
        chain = find_migration_chain(
            request.video.video_id, others, self.placement,
            RESCUE_POLICY, now,
        )
        if chain is None:
            return None
        execute_chain(
            chain, self.controller.managers, RESCUE_POLICY, now,
            tracer=self.tracer, cause="drain",
        )
        freed = self.controller.servers[chain[-1].source_id]
        if not freed.has_slot_for(request):
            raise RuntimeError(
                f"migration chain did not free a slot on server "
                f"{freed.server_id} for request {request.request_id}"
            )
        return freed

    def _depart(self, sid: int) -> None:
        info = self._draining.pop(sid, {"moved": 0})
        now = self.engine.now
        server = self.controller.servers[sid]
        manager = self.controller.managers[sid]
        manager.flush(now)
        manager.deactivate()
        for vid in self.placement.videos_on(sid):
            self.placement.remove_holder(vid, sid)
        server.up = False
        server.accepting = False
        self.membership.transition(sid, ServerLifecycle.DEPARTED)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_DEPART, now,
                server=sid, moved=info["moved"],
                epoch=self.membership.epoch,
            )

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> SimulationMetrics:
        return self.controller.metrics

    @property
    def on_decision(self):
        """The trigger's decision handler — None for one that watches
        nothing, in which case subscribing the scaler adds nothing.
        Bound on each read: a scaler holding a bound method of itself
        would be a reference cycle."""
        return self._trigger(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ElasticScaler out={self.scale_outs} in={self.scale_ins} "
            f"drained={self.streams_drained}>"
        )
