"""The live chaos plane: fault injection against a running gateway.

The simulator has had a declarative chaos schedule for a while
(:class:`repro.faults.FaultPlan` driven by the
:class:`~repro.faults.injector.FaultInjector`): crashes, link
degradation and replica loss fire as engine events, failover migrates
or drops the affected streams, and the invariant checker audits every
step.  This module extends that plane to the *live* serving runtime —
same faults, same seed, same decisions — plus the failure classes only
a real transport has:

* **engine faults, mirrored live** — the gateway's policy bridge runs
  the scenario's fault plan as part of ordinary virtual-time advance;
  the :class:`ChaosPlane` hooks the failover manager so every engine
  crash *also* kills the corresponding gateway server task mid-stream
  (through :meth:`~repro.serve.supervisor.TaskSupervisor.inject_crash`,
  so the trip dumps a postmortem and the task restarts warm) and every
  restore is accounted;
* **toxic transports** — :class:`ToxicWriter` wraps the gateway's
  side of the frame protocol (via ``ClusterGateway(wrap_writer=...)``)
  with injected latency, jitter, periodic stalls and mid-frame cuts;
* **client-side cuts** — :class:`ClientChaos` pre-draws, per session
  on a named substream, whether and *when* (in virtual time) a client
  severs its own connection, so the resilient load generator's
  reconnect timeline is byte-identical across same-seed runs;
* **the harness** — :func:`run_chaos_serve` wires all of the above
  around one gateway + load-generator pair and returns a reconciled
  report: the decision digest (for same-seed identity checks), every
  failover's affected sessions classified by how their client fared
  (migrated / recovered / lost / rejected), leaked-task and parity
  accounting, and any invariant violation.  It is the live leg of
  ``repro verify`` for every scenario: with no fault plan the plane
  stays unarmed and the same report comes back with nothing to
  reconcile.

Determinism contract (docs/ROBUSTNESS.md, "live chaos"): every fault
*decision* — which server crashes when, which client cuts when, each
backoff delay — is drawn from named RNG substreams in virtual time.
Wall-clock effects (toxic latency, stalls, event-loop jitter) may vary
freely between runs; they never feed back into the policy timeline, so
two same-seed chaos serves produce identical ``decisions_sha`` digests.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.core.failover import FailoverReport
from repro.faults.invariants import InvariantViolation
from repro.faults.retry import RetryPolicy
from repro.serve.config import ServeConfig
from repro.serve.gateway import ClusterGateway
from repro.serve.loadgen import (
    LoadGenerator,
    LoadReport,
    SessionOutcome,
    arrival_trace,
)
from repro.sim.rng import RandomStreams
from repro.simulation import SimulationConfig
from repro.workload.trace import Trace


# ----------------------------------------------------------------------
# Toxic transports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ToxicConfig:
    """One fault-injecting transport profile (toxiproxy-style).

    Attributes:
        latency: wall seconds added to every frame drain.
        jitter: fraction of *latency* the delay wanders by (uniform in
            ``[latency*(1-jitter), latency*(1+jitter)]``).
        stall_every: every Nth drain additionally stalls; 0 disables.
        stall_seconds: length of each injected stall — set it above the
            peer's ``send_timeout`` to exercise the timeout/retry path.
        cut_after_bytes: sever the connection mid-frame once this many
            payload bytes have been written; ``None`` disables.  After
            the cut every write raises :class:`ConnectionResetError`.
    """

    latency: float = 0.0
    jitter: float = 0.0
    stall_every: int = 0
    stall_seconds: float = 0.0
    cut_after_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.stall_every < 0:
            raise ValueError(
                f"stall_every must be >= 0, got {self.stall_every}"
            )
        if self.stall_seconds < 0:
            raise ValueError(
                f"stall_seconds must be >= 0, got {self.stall_seconds}"
            )
        if self.cut_after_bytes is not None and self.cut_after_bytes < 0:
            raise ValueError(
                f"cut_after_bytes must be >= 0, got {self.cut_after_bytes}"
            )

    @property
    def empty(self) -> bool:
        return (
            self.latency == 0.0
            and self.stall_every == 0
            and self.cut_after_bytes is None
        )


def _jittered_latency(toxic: ToxicConfig, rng: Any) -> float:
    """One frame's injected latency: uniform in ``latency * (1 ± jitter)``,
    drawn from *rng*."""
    delay = toxic.latency
    if delay and toxic.jitter:
        delay *= 1.0 - toxic.jitter + 2.0 * toxic.jitter * float(rng.random())
    return delay


class ToxicWriter:
    """A StreamWriter that injects latency, stalls and mid-frame cuts.

    Duck-typed drop-in for the subset of the ``asyncio.StreamWriter``
    API the frame protocol uses: ``write`` and ``drain`` are injected,
    everything else is the inner writer's.  Delays are
    served inside :meth:`drain`, and :func:`repro.serve.protocol.drain`
    never takes its nothing-buffered shortcut for a wrapper, so the
    gateway's ``send_timeout`` deadline sees an injected stall as
    genuine backpressure.  A delay belongs to the write that triggered
    it: when that deadline cancels the drain, the next drain of the same
    write waits out only the remainder, so a stall shorter than the
    peer's whole retry budget is survivable.  A cut writes a *prefix* of
    the offending buffer and then aborts the transport — the peer
    observes a connection closed inside a frame.
    """

    def __init__(
        self,
        inner: asyncio.StreamWriter,
        toxic: ToxicConfig,
        rng: Any,
    ) -> None:
        self.inner = inner
        self.toxic = toxic
        self.rng = rng
        self.writes = 0
        self.stalls = 0
        self.delayed_s = 0.0
        self.cut = False
        self._bytes = 0
        self._delayed_write = 0   # the write the pending delay belongs to
        self._release = 0.0       # loop time that delay is served at

    # -- the injected write path ---------------------------------------
    def write(self, data: bytes) -> None:
        if self.cut:
            raise ConnectionResetError("toxic: connection cut")
        self.writes += 1
        cut_at = self.toxic.cut_after_bytes
        if cut_at is not None and self._bytes + len(data) > cut_at:
            keep = max(0, cut_at - self._bytes)
            if keep:
                self.inner.write(data[:keep])
            self._bytes += keep
            self.cut = True
            transport = self.inner.transport
            if transport is not None:
                transport.abort()
            raise ConnectionResetError("toxic: connection cut mid-frame")
        self._bytes += len(data)
        self.inner.write(data)

    async def drain(self) -> None:
        if self.cut:
            raise ConnectionResetError("toxic: connection cut")
        now = asyncio.get_running_loop().time()
        if self._delayed_write != self.writes:
            self._delayed_write = self.writes
            delay = _jittered_latency(self.toxic, self.rng)
            if (
                self.toxic.stall_every
                and self.writes % self.toxic.stall_every == 0
            ):
                self.stalls += 1
                delay += self.toxic.stall_seconds
            self.delayed_s += delay
            self._release = now + delay
        if self._release > now:
            await asyncio.sleep(self._release - now)
        await self.inner.drain()

    def __getattr__(self, name: str) -> Any:
        # close / wait_closed / is_closing / get_extra_info / transport
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ToxicWriter writes={self.writes} stalls={self.stalls} "
            f"cut={self.cut}>"
        )


# ----------------------------------------------------------------------
# Client-side fault plans
# ----------------------------------------------------------------------
#: Virtual seconds after its arrival within which a session's pre-drawn
#: cut fires (uniform draw).
CUT_DELAY: Tuple[float, float] = (5.0, 30.0)


class ClientFaultPlan:
    """One session's pre-drawn cut, so it replays identically.

    The resilient load-generator client consults this plan (duck-typed,
    see :class:`repro.serve.loadgen._LiveClient`): ``cut_vt`` is the
    virtual chunk stamp at which the client severs its connection once
    (and re-requests anchored on that exact stamp).
    """

    __slots__ = ("cut_vt", "cut_done")

    def __init__(self, cut_vt: float) -> None:
        self.cut_vt = cut_vt
        self.cut_done = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClientFaultPlan cut_vt={self.cut_vt} done={self.cut_done}>"


class ClientChaos:
    """Deterministic per-session fault-plan factory.

    Each session's draws come from the named substream
    ``chaos.client.<index>`` of a dedicated :class:`RandomStreams`
    (fixed draw count, fixed order), so plan *decisions* are a pure
    function of ``(seed, index)`` — independent of dispatch order and
    of every other session.

    Args:
        trace: the arrival trace (cut times are offsets from each
            session's own arrival, within :data:`CUT_DELAY`).
        streams: the chaos-side substream factory (scenario seed).
        cut_prob: probability a session severs its own connection once.
    """

    def __init__(
        self, trace: Trace, streams: RandomStreams, cut_prob: float = 0.0
    ) -> None:
        if not 0.0 <= cut_prob <= 1.0:
            raise ValueError(f"cut_prob must be in [0, 1], got {cut_prob}")
        self.trace = trace
        self.streams = streams
        self.cut_prob = cut_prob
        self.cuts_planned = 0

    def plan_for(self, index: int) -> Optional[ClientFaultPlan]:
        """The plan for trace position *index* (None when fault-free)."""
        rng = self.streams.fresh(f"chaos.client.{index}")
        # Fixed draw order: eligibility, then offset — both drawn for
        # every session, so the cut times stay where they are.
        cut = float(rng.random()) < self.cut_prob
        frac = float(rng.random())
        if not cut:
            return None
        lo, hi = CUT_DELAY
        self.cuts_planned += 1
        return ClientFaultPlan(self.trace[index].time + lo + frac * (hi - lo))


# ----------------------------------------------------------------------
# The gateway-side chaos plane
# ----------------------------------------------------------------------
class ChaosPlane:
    """Mirror engine faults into the live gateway, and account for them.

    The policy bridge already *decides* faults deterministically — the
    scenario's :class:`~repro.faults.FaultPlan` fires inside virtual-
    time advance, and failover migrates or drops the affected requests.
    Arming the plane closes the loop to the wall-clock side: every
    engine server crash also kills the corresponding gateway server
    task (supervised trip: postmortem, ``task.trip`` trace, warm
    restart), and every restore is recorded.  The ops endpoint's
    ``chaos`` verb answers from :meth:`report`.
    """

    def __init__(self, gateway: ClusterGateway) -> None:
        self.gateway = gateway
        # Faults are only mirrored (and reported) inside the scenario's
        # declared window.  The gateway's pacing loop keeps advancing
        # virtual time while it drains, and how far it gets is pure
        # wall-clock accident — at compression 60 a few milliseconds of
        # scheduler jitter are whole virtual seconds — so an unbounded
        # plane would record a different fault tail on every run and
        # keep killing server tasks into the teardown.
        self.horizon = float(gateway.bridge.config.duration)
        self.failures: List[FailoverReport] = []
        self.restores: List[int] = []
        self.live_kills = 0
        self.kill_misses = 0
        self.late_failures = 0
        self._armed = False

    def arm(self) -> "ChaosPlane":
        """Hook the bridge's failover manager (once per plane)."""
        failover = self.gateway.bridge.failover
        if failover is None:
            raise RuntimeError(
                "scenario has no failover manager — add a `faults` block "
                "(or a retry policy) to the scenario before arming chaos"
            )
        failover.on_fail.append(self._on_fail)
        failover.on_restore.append(self._on_restore)
        self.gateway.chaos = self
        self._armed = True
        return self

    # -- failover hooks (fire inside bridge.advance) -------------------
    def _on_fail(self, report: FailoverReport) -> None:
        if report.time > self.horizon:
            self.late_failures += 1
            return
        self.failures.append(report)
        reason = (
            f"engine crash of server {report.server_id} "
            f"@vt={report.time:.3f}"
        )

        def _kill() -> None:
            if self.gateway.kill_server_task(report.server_id, reason):
                self.live_kills += 1
            else:
                self.kill_misses += 1

        # Deferred one callback: the hook runs inside the policy loop's
        # engine advance; cancelling a sibling task from there is legal
        # but reentrant — call_soon keeps the kill an ordinary event.
        asyncio.get_running_loop().call_soon(_kill)

    def _on_restore(self, server_id: int) -> None:
        # The engine clock sits at the restore event's scheduled time
        # while the hook runs, so this is the same in-window test as
        # the failure side.
        if self.gateway.bridge.now > self.horizon:
            return
        self.restores.append(server_id)

    # -- accounting ----------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """JSON-ready plane summary (the ops ``chaos`` verb's body)."""
        return {
            "armed": self._armed,
            "horizon": self.horizon,
            "late_failures": self.late_failures,
            "failures": [
                {
                    "server": r.server_id,
                    "t": round(r.time, 9),
                    "relocated": len(r.relocated),
                    "dropped": len(r.dropped),
                    "survival_ratio": round(r.survival_ratio, 6),
                }
                for r in self.failures
            ],
            "restores": list(self.restores),
            "live_kills": self.live_kills,
            "kill_misses": self.kill_misses,
            "supervisor": self.gateway.sup.report(),
        }


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def reconcile(
    failures: List[FailoverReport], sessions: List[SessionOutcome]
) -> Dict[str, Any]:
    """Classify every failover-affected request by its client's fate.

    Every request id a failover relocated must belong to a client that
    kept streaming (``migrated``); every dropped id's client must have
    either finished via re-request (``recovered``), been cleanly
    rejected on re-request (``rejected``), exhausted its retry budget
    (``lost``), or errored out (``error``).  ``unmatched`` — a dropped
    id no client ever held — indicates an accounting bug and should be
    empty.
    """
    by_request: Dict[int, SessionOutcome] = {}
    for outcome in sessions:
        for rid in outcome.request_ids:
            by_request[rid] = outcome
    recon: Dict[str, List[int]] = {
        "migrated": [],
        "recovered": [],
        "lost": [],
        "rejected": [],
        "error": [],
        "unmatched": [],
    }
    for report in failures:
        for rid in report.relocated:
            (recon["migrated"] if rid in by_request
             else recon["unmatched"]).append(rid)
        for rid in report.dropped:
            outcome = by_request.get(rid)
            if outcome is None:
                recon["unmatched"].append(rid)
            elif outcome.outcome == "lost":
                recon["lost"].append(rid)
            elif outcome.outcome == "rejected":
                recon["rejected"].append(rid)
            elif outcome.accepted:
                # Finished via re-request — or, with no retry policy,
                # the drop itself is the terminal reason and the client
                # saw it: accounted, not lost.
                recon["recovered"].append(rid)
            else:
                recon["error"].append(rid)
    affected = sum(len(v) for v in recon.values())
    return {
        "affected": affected,
        "accounted": affected - len(recon["unmatched"]),
        **{key: sorted(ids) for key, ids in recon.items()},
    }


def leaked_tasks() -> List[str]:
    """Names of the tasks still alive in the running loop besides the
    caller — empty after a clean :meth:`ClusterGateway.stop`."""
    current = asyncio.current_task()
    return sorted(
        task.get_name()
        for task in asyncio.all_tasks()
        if task is not current and not task.done()
    )


async def run_chaos_serve(
    config: SimulationConfig,
    serve: Optional[ServeConfig] = None,
    retry: Optional[RetryPolicy] = None,
    gateway_toxic: Optional[ToxicConfig] = None,
    cut_prob: float = 0.0,
    max_sessions: Optional[int] = None,
    postmortem: Union[str, Path] = "chaos_postmortem.jsonl",
    progress: Optional[Callable[[str], None]] = None,
    probe: Optional[Callable[[ClusterGateway], Awaitable[None]]] = None,
) -> Dict[str, Any]:
    """The live leg: gateway + load generator on loopback, to the horizon.

    Serves the scenario's arrival trace over real TCP, advances the
    policy engine to the horizon, stops the gateway and counts leaked
    asyncio tasks.  When the scenario has a fault plan the chaos plane
    is armed (engine crashes mirror into gateway task kills); a toxic
    gateway-side transport, a client retry policy and deterministic
    client-side cuts are opt-in through the keyword arguments.  *probe*,
    when given, is awaited with the started gateway alongside the load
    generator (the ops tests scrape the endpoint mid-run through it).

    Returns a JSON-ready report whose ``digest`` is the policy decision
    digest — byte-identical across same-seed runs of the same inputs —
    plus ``load``, ``chaos``, ``reconciliation``, ``leaked_tasks``,
    ``parity_clamps`` and ``invariant_violation`` fields (see
    docs/ROBUSTNESS.md, "live chaos").

    An :class:`InvariantViolation` raised by the policy core is caught,
    reported, and leaves the runtime torn down — the caller decides
    whether it fails the run.
    """
    serve = serve if serve is not None else ServeConfig(port=0)
    tracer = obs.Tracer()
    gateway_rng = RandomStreams(seed=config.seed).get("chaos.toxic.gateway")
    wrap = (
        (lambda w: ToxicWriter(w, gateway_toxic, gateway_rng))
        if gateway_toxic is not None and not gateway_toxic.empty
        else None
    )
    gateway = ClusterGateway(
        config, serve, tracer=tracer, wrap_writer=wrap
    )
    trace = arrival_trace(gateway.bridge, max_sessions=max_sessions)
    recorder = obs.FlightRecorder(
        tracer,
        postmortem,
        provenance=obs.run_provenance(
            seed=config.seed,
            config=config,
            extra={"mode": "chaos-serve", "serve": serve.to_dict()},
        ),
        state=gateway.registry.snapshot,
    )
    gateway.recorder = recorder
    plane = ChaosPlane(gateway)
    if gateway.bridge.failover is not None:
        plane.arm()
    await gateway.start()

    live = dataclasses.replace(serve, port=gateway.port)
    client_chaos = ClientChaos(
        trace, RandomStreams(seed=config.seed), cut_prob=cut_prob
    )
    generator = LoadGenerator(
        live,
        trace,
        progress=progress,
        retry=retry,
        seed=config.seed,
        faults=client_chaos.plan_for,
    )

    violation: Optional[str] = None
    load = LoadReport()
    loading = asyncio.ensure_future(generator.run())
    try:
        if probe is not None:
            await probe(gateway)
        load = await loading
    finally:
        loading.cancel()  # still running only when the probe raised
        try:
            # Every in-window fault and scale event must have fired
            # before the report is cut, however far the wall-paced
            # advance lagged; a no-op when the engine is already past
            # the horizon.  The sleep lets the deferred kill callbacks
            # land while the supervisor is still up.
            gateway.bridge.advance(plane.horizon)
            await asyncio.sleep(0)
            summary = await gateway.stop()
        except InvariantViolation as exc:
            violation = str(exc)
            await gateway.abort()
            summary = gateway.summary()

    return {
        "digest": summary["policy"]["decisions_sha"],
        "chaos": plane.report(),
        "reconciliation": reconcile(plane.failures, load.sessions),
        "load": load.to_dict(),
        "summary": summary,
        "parity_clamps": summary["serve"]["parity_clamps"],
        "invariant_violation": violation,
        "leaked_tasks": leaked_tasks(),
        "cuts_planned": client_chaos.cuts_planned,
        "postmortem": str(postmortem) if recorder.dumps else None,
        "postmortem_dumps": recorder.dumps,
    }
