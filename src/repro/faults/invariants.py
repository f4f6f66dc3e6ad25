"""Online invariant checking: a tripwire over the fluid-flow state.

The checker subscribes to the engine's trace hook, so it sees every
event just before it fires (with the clock already advanced to the
event's timestamp).  Clock monotonicity is asserted per event; the
state-projection invariants are asserted every ``check_interval`` events
— between events all state evolves linearly, so projecting each stream
to *now* and checking there covers the whole interval:

* **conservation of bytes** — no attached stream sends more than its
  video's size (within float tolerance);
* **per-server capacity** — ``sum(rates) <= B_server`` on every up
  server (degraded links use the degraded capacity);
* **no-underrun** — ``bytes_viewed(now) <= bytes_sent(now)`` for every
  stream outside a migration switch gap;
* **clock / heap monotonicity** — fired event times never decrease.

A failed assertion raises :class:`InvariantViolation` carrying the
offending subject and the recent event window; the exception propagates
out of ``engine.run_until`` and aborts the run (and, optionally, is
mirrored as an ``invariant.violation`` trace record first, so the JSONL
trace ends with the diagnosis).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.cluster.controller import DistributionController
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine

#: Capacity / conservation tolerance, Mb resp. Mb/s.  Wider than
#: ``EPS_MB`` because ``bytes_sent`` accumulates one multiply-add of
#: float error per sync event while ``bytes_viewed`` is a single closed
#: form — the two legitimately drift apart by float noise over long
#: runs.  1e-3 Mb (a millisecond of playback) matches the tolerance the
#: metrics sanity check already uses and is orders of magnitude below
#: anything physically meaningful (videos are 10^3..10^5 Mb).
EPS_CHECK = 1e-3


class InvariantViolation(AssertionError):
    """A simulation invariant was observed broken.

    Attributes:
        invariant: short name (``conservation`` / ``capacity`` /
            ``no_underrun`` / ``monotonic_clock``).
        subject: what broke (``request 17`` / ``server 3``).
        detail: human-readable measurement.
        time: simulation time of the check.
        window: recent ``(time, event_kind)`` pairs leading up to the
            violation — the offending trace window.
    """

    def __init__(
        self,
        invariant: str,
        subject: str,
        detail: str,
        time: float,
        window: List[Tuple[float, str]],
    ) -> None:
        super().__init__(
            f"[{invariant}] {subject} at t={time:.6g}: {detail} "
            f"(last {len(window)} events: {window})"
        )
        self.invariant = invariant
        self.subject = subject
        self.detail = detail
        self.time = time
        self.window = window


class InvariantChecker:
    """Engine trace subscriber asserting the fluid-flow invariants.

    Args:
        engine: the engine to watch (subscribe via :meth:`attach`).
        controller: the cluster under test.
        check_interval: events between full state projections (1 checks
            at every event; the default keeps overhead low on long runs).
        window: number of recent events retained for violation reports.
        tracer: optional tracer; violations are mirrored as
            ``invariant.violation`` records before raising.
    """

    def __init__(
        self,
        engine: Engine,
        controller: DistributionController,
        check_interval: int = 64,
        window: int = 32,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        self.engine = engine
        self.controller = controller
        self.check_interval = int(check_interval)
        self.tracer = tracer
        self._recent: Deque[Tuple[float, str]] = deque(maxlen=window)
        self._last_time = float("-inf")
        self._count = 0
        self.checks_run = 0
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> None:
        if self._attached:
            return
        self.engine.add_trace(self._on_event)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        self.engine.remove_trace(self._on_event)
        self._attached = False

    # ------------------------------------------------------------------
    def _violate(self, invariant: str, subject: str, detail: str) -> None:
        now = self.engine.now
        window = list(self._recent)
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.INVARIANT_VIOLATION, now,
                invariant=invariant, subject=subject, detail=detail,
            )
        raise InvariantViolation(invariant, subject, detail, now, window)

    def _on_event(self, event) -> None:
        t = event.time
        if t < self._last_time:
            self._violate(
                "monotonic_clock",
                f"event {event.kind or '<anon>'}",
                f"fired at {t} after {self._last_time}",
            )
        self._last_time = t
        self._recent.append((t, event.kind))
        self._count += 1
        if self._count % self.check_interval == 0:
            self.check_now()

    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Project every attached stream to the current clock and assert
        the state invariants.  Public so tests (and end-of-run hooks)
        can force a final sweep."""
        now = self.engine.now
        self.checks_run += 1
        for server in self.controller.servers.values():
            if not server.up:
                continue
            total_rate = 0.0
            for r in server.iter_active():
                rate = r.rate
                total_rate += rate
                sent = r.sent_at(now)
                if sent > r.video.size + EPS_CHECK:
                    self._violate(
                        "conservation",
                        f"request {r.request_id}",
                        f"bytes_sent {sent:.6f} > size {r.video.size:.6f}",
                    )
                viewed = r.bytes_viewed(now)
                if now >= r.paused_until and sent - viewed < -EPS_CHECK:
                    # Outside a migration switch gap a stream transmits
                    # at >= its drain rate (minimum flow), so the client
                    # buffer can never go negative.
                    self._violate(
                        "no_underrun",
                        f"request {r.request_id}",
                        f"buffer {sent - viewed:.6f} Mb < 0 on server "
                        f"{server.server_id}",
                    )
            if total_rate > server.bandwidth + EPS_CHECK:
                self._violate(
                    "capacity",
                    f"server {server.server_id}",
                    f"sum(rates) {total_rate:.6f} > link "
                    f"{server.bandwidth:.6f} Mb/s",
                )
