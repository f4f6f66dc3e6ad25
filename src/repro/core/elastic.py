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
  activating: ``"popular"`` (the placement policy's
  :meth:`~repro.placement.base.PlacementPolicy.warm_targets`, hottest
  first) or ``"none"`` (join empty; dynamic replication fills it).

Lifecycle (see :mod:`repro.cluster.membership`)::

    scale_out: joining -> warming -> active
    scale_in:  active  -> draining -> departed
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.metrics import SimulationMetrics
from repro.cluster.membership import ClusterMembership, ServerLifecycle
from repro.cluster.profile import CalibrationConfig, calibrate_server
from repro.cluster.request import Request
from repro.cluster.server import DataServer
from repro.core.admission import AdmissionOutcome
from repro.core.migration import (
    RESCUE_POLICY,
    execute_chain,
    find_migration_chain,
)
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.placement.base import PlacementMap, PlacementPolicy
from repro.registry import Registry
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workload.catalog import VideoCatalog
from repro.workload.zipf import ZipfPopularity

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
    """Seed the placement policy's hottest fitting videos."""
    limit = max(
        1, int(round(scaler.policy.warm_fraction * len(scaler.catalog)))
    )
    return scaler.placement_policy.warm_targets(
        scaler.catalog, scaler.popularity, scaler.placement, server, limit
    )


def _warm_none(scaler: "ElasticScaler", server: DataServer) -> List[int]:
    """Join empty; dynamic replication (or nothing) fills the disk."""
    return []


WARMERS.register(
    "popular", _warm_popular,
    help="warm the placement policy's warm_targets (hottest videos "
         "first, warm_fraction of the catalog)",
)
WARMERS.register(
    "none", _warm_none,
    help="activate immediately with an empty disk",
)


@dataclass(frozen=True)
class ScaleEvent:
    """One scenario-declared membership change.

    Attributes:
        time: virtual seconds at which the event fires.
        action: ``"scale_out"`` or ``"scale_in"``.
        count: servers to add/remove (scale_in with ``server_id`` set
            ignores this and drains exactly that server).
        bandwidth: joiner's nominal link, Mb/s (scale_out only;
            defaults to the cluster's mean preset).
        disk: joiner's disk, Mb (scale_out only; defaults likewise).
        server_id: the specific server to drain (scale_in only;
            defaults to the highest-id active member).
    """

    time: float
    action: str
    count: int = 1
    bandwidth: Optional[float] = None
    disk: Optional[float] = None
    server_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.action not in ("scale_out", "scale_in"):
            raise ValueError(
                f"action must be 'scale_out' or 'scale_in', "
                f"got {self.action!r}"
            )
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )
        if self.disk is not None and self.disk < 0:
            raise ValueError(f"disk must be >= 0, got {self.disk}")

    def to_dict(self) -> dict:
        from repro.serialize import shallow_dict

        return shallow_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScaleEvent":
        from repro.serialize import check_fields

        check_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class ElasticPolicy:
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

    def to_dict(self) -> dict:
        from repro.serialize import shallow_dict

        out = shallow_dict(self)
        out["events"] = [e.to_dict() for e in self.events]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ElasticPolicy":
        from repro.serialize import check_fields

        check_fields(cls, data)
        data = dict(data)
        events = data.pop("events", ())
        data["events"] = tuple(
            e if isinstance(e, ScaleEvent) else ScaleEvent.from_dict(e)
            for e in events
        )
        return cls(**data)


class ElasticScaler:
    """Executes membership changes against a running cluster.

    Built by the simulation's ``observers`` stage when the config has
    an :class:`ElasticPolicy`; :meth:`start` schedules the declared
    events, and subscribing the scaler to the controller wires the
    trigger's decision handler, if it has one.

    Attributes:
        scale_outs / scale_ins: events executed so far.
        streams_drained: streams migrated off departing servers.
    """

    def __init__(
        self,
        engine: Engine,
        controller,
        membership: ClusterMembership,
        placement: PlacementMap,
        catalog: VideoCatalog,
        popularity: ZipfPopularity,
        placement_policy: PlacementPolicy,
        policy: ElasticPolicy,
        streams: RandomStreams,
        calibration: Optional[CalibrationConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.controller = controller
        self.membership = membership
        self.placement = placement
        self.catalog = catalog
        self.popularity = popularity
        self.placement_policy = placement_policy
        self.policy = policy
        self.streams = streams
        self.calibration = calibration
        self.tracer = tracer
        servers = controller.servers
        self._default_bandwidth = sum(
            s.nominal_bandwidth for s in servers.values()
        ) / len(servers)
        self._default_disk = sum(
            s.disk_capacity for s in servers.values()
        ) / len(servers)
        #: The trigger's decision handler — None for one that watches
        #: nothing, in which case subscribing the scaler adds nothing.
        self.on_decision = SCALE_TRIGGERS.get(policy.trigger)(self)
        self._rejections: Deque[float] = deque()
        self._cooldown_until = float("-inf")
        #: Per-draining-server bookkeeping: moved count + in-flight
        #: sole-replica evacuation copies.
        self._draining: Dict[int, Dict] = {}
        self.scale_outs = 0
        self.scale_ins = 0
        self.streams_drained = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the declared events."""
        now = self.engine.now
        for event in self.policy.events:
            delay = max(0.0, event.time - now)
            if event.action == "scale_out":
                self.engine.schedule(
                    delay, lambda e=event: self._scale_out(e),
                    kind="elastic:scale_out",
                )
            else:
                self.engine.schedule(
                    delay, lambda e=event: self._scale_in(e),
                    kind="elastic:scale_in",
                )

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
                0.0,
                lambda: self._scale_out(
                    ScaleEvent(time=now, action="scale_out")
                ),
                kind="elastic:scale_out",
            )

    # ------------------------------------------------------------------
    # Scale-out: join -> warm -> activate
    # ------------------------------------------------------------------
    def _scale_out(self, event: ScaleEvent) -> None:
        for _ in range(event.count):
            self._add_server(event)

    def _add_server(self, event: ScaleEvent) -> None:
        now = self.engine.now
        sid = max(self.controller.servers) + 1
        bandwidth = (
            event.bandwidth
            if event.bandwidth is not None
            else self._default_bandwidth
        )
        disk = event.disk if event.disk is not None else self._default_disk
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
        if not server.up:
            return  # crashed mid-warm; chaos reconciliation owns it now
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
            server.drop_replica(self.catalog[vid])
            return
        self.placement.add_holder(vid, sid)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.SERVER_WARM, self.engine.now,
                server=sid, video=vid, seconds=seconds,
            )
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
        count = 1 if event.server_id is not None else event.count
        for _ in range(count):
            actives = self.membership.members(ServerLifecycle.ACTIVE)
            if len(actives) <= 1:
                return  # never drain the last active server
            if event.server_id is not None:
                sid = event.server_id
                if self.membership.states.get(sid) is not ServerLifecycle.ACTIVE:
                    return  # already leaving (or never joined); no-op
            else:
                sid = actives[-1]
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
        servers = self.controller.servers
        candidates = [
            servers[tid]
            for tid in self.placement.holders(request.video.video_id)
            if tid != sid
            and tid in servers
            and servers[tid].has_slot_for(request)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (s.active_count, s.server_id))

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
        manager.deactivate(now)
        self.placement_policy.on_server_depart(self.placement, server)
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ElasticScaler out={self.scale_outs} in={self.scale_ins} "
            f"drained={self.streams_drained}>"
        )
