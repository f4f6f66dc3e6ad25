"""PolicyBridge: one decision path for simulator and live gateway.

The parity contract (docs/SERVING.md) in one sentence: *the admit /
reject / migrate decisions of a scenario are byte-identical whether its
simulation runs in virtual time or the gateway serves its arrivals live
over TCP.*  The bridge enforces it structurally: it **is** the
scenario's :class:`repro.Simulation` — same build, substreams, catalog,
placement and admission — fed through :meth:`Simulation.submit` (one
TCP frame at a time, or a trace by :meth:`PolicyBridge.replay`) and
ended by :meth:`Simulation.finish`.  Its one job of its own is
recording each arrival's decision, and it records a plain
:meth:`Simulation.run` the same way.  Both paths decide an arrival at
*t* after every engine event due at *t*, and ``advance(a);
advance(b)`` fires exactly the events of ``advance(b)``, so pacing
reads between arrivals cannot change any decision.

Virtual time cannot rewind: :meth:`PolicyBridge.submit` raises
:class:`repro.simulation.ParityError` for an arrival behind the engine
clock, which the gateway's guard/reorder machinery exists to prevent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro import obs
from repro.cluster.controller import Decided
from repro.cluster.request import Request
from repro.core.admission import AdmissionOutcome
from repro.simulation import Simulation, SimulationConfig
from repro.workload.trace import RequestSpec


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


class PolicyBridge(Simulation):
    """A :class:`Simulation` that records every arrival's decision.

    Args:
        config: the full policy configuration (a scenario's config).
        tracer: optional obs tracer threaded through every layer, as in
            a traced simulation.

    Attributes:
        decisions: every arrival's decision so far, in arrival order
            (retries a retry queue resubmits are not arrivals).
    """

    def __init__(
        self,
        config: SimulationConfig,
        tracer: Optional[obs.Tracer] = None,
    ) -> None:
        super().__init__(config, tracer=tracer)
        self.decisions: List[Decision] = []

    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulation:
        """The bridge itself, read by the ledger (``bench/``)."""
        return self

    @property
    def now(self) -> float:
        """The policy engine's virtual clock."""
        return self.engine.now

    def _decide(self, video: int) -> Decided:
        metrics = self.controller.metrics
        migrations_before = metrics.migrations
        request, outcome = self.controller.submit(video)
        self.decisions.append(Decision(
            index=len(self.decisions),
            time=self.engine.now,
            video=video,
            request=request.request_id,
            outcome=outcome.value,
            server=request.server_id,
            migrations=metrics.migrations - migrations_before,
        ))
        return request, outcome

    def submit(self, time: float, video_id: int) -> Tuple[Decision, Request]:
        """:meth:`Simulation.submit`, answered with the recorded
        decision and the :class:`Request` it decided (the gateway paces
        an accepted one); raises :class:`~repro.simulation.ParityError`
        for a *time* behind the engine clock."""
        request, _ = super().submit(time, video_id)
        return self.decisions[-1], request

    # ------------------------------------------------------------------
    def replay(self, specs: Iterable[RequestSpec]) -> List[Decision]:
        """Feed a whole trace through :meth:`submit` (virtual-time mode)."""
        return [self.submit(spec.time, spec.video_id)[0] for spec in specs]

    def finalize(self) -> dict:
        """:meth:`finish` at the bridge's clock, unless finished already;
        return a summary of the policy core's view of the run."""
        if not self._finished:
            self.finish()
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
