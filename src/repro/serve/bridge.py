"""PolicyBridge: one decision path for simulator and live gateway.

The parity contract (docs/SERVING.md) in one sentence: *the set of
admit / reject / migrate decisions for a given arrival trace must be
byte-identical whether the trace is simulated in virtual time or served
live over TCP.*  The bridge enforces it structurally rather than by
testing alone:

* it builds the policy core through the ordinary
  :class:`repro.Simulation` constructor — same RNG substreams, same
  catalog, same placement, same :class:`AdmissionController` — so live
  mode cannot wire the policies differently;
* the built-in arrival process is stopped at construction; *every*
  arrival enters through :meth:`submit`, in live mode from a TCP frame
  and in replay mode from a :class:`repro.workload.trace.Trace`;
* the engine clock only moves forward through :meth:`advance` /
  :meth:`submit`, and ``Engine.run_until`` is composable —
  ``advance(a); advance(b)`` fires exactly the events of
  ``advance(b)`` — so interleaving pacing reads between arrivals
  cannot change any decision.

Submitting an arrival earlier than the engine clock would *break*
parity (virtual time cannot rewind), so :meth:`submit` raises
:class:`ParityError`; the gateway's guard/reorder machinery exists to
keep that from ever happening (see :mod:`repro.serve.gateway`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro import obs
from repro.cluster.request import Request
from repro.core.admission import AdmissionOutcome
from repro.simulation import Simulation, SimulationConfig
from repro.workload.trace import RequestSpec


class ParityError(RuntimeError):
    """An arrival was submitted behind the policy engine's clock."""


@dataclass(frozen=True)
class Decision:
    """One admission decision, in a wire-stable shape.

    ``to_wire`` is the byte-level parity unit: two runs agree exactly
    when their decision lists serialise to the same JSON.
    """

    index: int
    time: float
    video: int
    request: int
    outcome: str
    server: Optional[int]
    migrations: int

    @property
    def accepted(self) -> bool:
        """True for both plain and migration-assisted admissions."""
        return AdmissionOutcome(self.outcome).accepted

    def to_wire(self) -> dict:
        return {
            "i": self.index,
            "t": round(self.time, 9),
            "video": self.video,
            "request": self.request,
            "outcome": self.outcome,
            "server": self.server,
            "migrations": self.migrations,
        }


def decisions_digest(decisions: Iterable[Decision]) -> str:
    """Canonical JSON of a decision list (the parity comparand)."""
    return json.dumps(
        [d.to_wire() for d in decisions], separators=(",", ":")
    )


class PolicyBridge:
    """The policy core of one run, driven by externally supplied arrivals.

    Args:
        config: the full policy configuration (a scenario's config).
        tracer: optional obs tracer threaded through every layer, as in
            a traced simulation.

    Attributes:
        sim: the underlying (arrival-stopped) :class:`Simulation`.
        decisions: every decision made so far, in submission order.
    """

    def __init__(
        self,
        config: SimulationConfig,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        self.config = config
        self.sim = Simulation(config, tracer=tracer)
        # Live arrivals come from the caller; the builder's own arrival
        # process must not inject Poisson traffic alongside them.
        self.sim._arrivals.stop()
        self.engine = self.sim.engine
        self.controller = self.sim.controller
        self.decisions: List[Decision] = []
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The policy engine's virtual clock."""
        return self.engine.now

    def advance(self, time: float) -> None:
        """Run the policy engine forward to virtual *time*.

        Fires every boundary event (finishes, buffer-full, switch-gap
        ends) scheduled up to *time* — exactly the events a virtual-time
        simulation would fire.  A no-op when *time* is not ahead of the
        clock.
        """
        if time > self.engine.now:
            self.engine.run_until(time)

    def submit(self, time: float, video_id: int) -> Decision:
        """Run one arrival through the shared admission pipeline.

        Args:
            time: the arrival's virtual time; must be >= the engine
                clock (arrivals are totally ordered).
            video_id: requested catalog id.

        Raises:
            ParityError: when *time* lies behind the engine clock —
                admitting it "now" would diverge from the virtual-time
                run of the same trace.
        """
        if time < self.engine.now:
            raise ParityError(
                f"arrival at virtual t={time:.6f} is behind the policy "
                f"clock {self.engine.now:.6f}; decisions would diverge "
                f"from the virtual-time run (widen ServeConfig.guard / "
                f"reorder_window)"
            )
        self.advance(time)
        metrics = self.controller.metrics
        migrations_before = metrics.migrations
        request, outcome = self.controller.submit(video_id)
        decision = Decision(
            index=len(self.decisions),
            time=time,
            video=video_id,
            request=request.request_id,
            outcome=outcome.value,
            server=request.server_id,
            migrations=metrics.migrations - migrations_before,
        )
        self.decisions.append(decision)
        return decision

    def request_of(self, decision: Decision) -> Optional[Request]:
        """The live :class:`Request` behind an accepted *decision*.

        Looks the request up in the cluster's active sets (requests
        detach on finish); returns None once it is gone.
        """
        for server in self.controller.servers.values():
            for request in server.iter_active():
                if request.request_id == decision.request:
                    return request
        return None

    # ------------------------------------------------------------------
    def replay(self, specs: Iterable[RequestSpec]) -> List[Decision]:
        """Feed a whole trace through :meth:`submit` (virtual-time mode).

        This is the reference side of the parity test: the live gateway
        produces its decisions one TCP frame at a time, this method
        produces them in a tight loop — both through the exact same
        code.
        """
        return [self.submit(spec.time, spec.video_id) for spec in specs]

    def finalize(self, time: Optional[float] = None) -> dict:
        """Advance to *time* (default: now), flush accounting, and
        return a summary of the policy core's view of the run."""
        if not self._finalized:
            self._finalized = True
            if time is not None:
                self.advance(time)
            self.controller.finalize(self.engine.now)
        metrics = self.controller.metrics
        return {
            "virtual_duration": self.engine.now,
            "arrivals": metrics.arrivals,
            "accepted": metrics.accepted,
            "rejected": metrics.rejected,
            "migrations": metrics.migrations,
            "underruns": metrics.underruns,
            "finished": metrics.finished,
            "events_fired": self.engine.events_fired,
            "decisions": len(self.decisions),
            "decisions_sha": obs.config_hash(
                {"decisions": decisions_digest(self.decisions)}
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PolicyBridge t={self.engine.now:.6g} "
            f"decisions={len(self.decisions)}>"
        )
