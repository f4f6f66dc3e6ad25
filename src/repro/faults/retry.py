"""Graceful degradation: a bounded retry queue with backoff + jitter.

Without this, a rejected or failure-orphaned request is simply gone —
fine for the paper's steady-state utilization measurements, wrong for a
server facing *schedules* of failures.  Once subscribed to the
controller the queue hears every admission decision (``on_decision``)
and every mid-flight drop (``on_drop``), and resubmits victims after
exponential backoff with per-request jitter:

* the **delay** for attempt *k* is ``base_delay * 2**(k-1)`` capped at
  ``max_delay``, scaled by a uniform jitter factor in
  ``[1 - jitter, 1 + jitter]`` drawn from the *request's own* RNG
  substream (``retry.req<id>``) — so two same-seed runs back off
  identically regardless of event interleaving;
* the queue is **bounded** (``max_pending``) and each request gets at
  most ``max_attempts`` resubmissions; overflow and exhaustion are
  terminal (``request.retry_exhaust`` trace, ``retry.exhausted``
  counter) — that is the availability loss under chaos;
* a dropped stream keeps its transmitted bytes: consumption is frozen
  (:meth:`Request.pause_playback`) for the outage and resumes on
  re-admission, so the viewer stalls instead of silently losing data.

Accounting: every resubmission that actually fires counts as an arrival
(preserving ``accepted + rejected == arrivals`` per attempt) and as one
``retries`` tick (so ``distinct_arrivals = arrivals - retries`` counts
real viewers); see :class:`repro.analysis.metrics.SimulationMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.controller import DistributionController
from repro.cluster.request import EPS_MB, Request
from repro.core.admission import AdmissionOutcome
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff configuration for the retry queue."""

    max_attempts: int = 4        #: resubmissions per request before giving up
    base_delay: float = 5.0      #: first-retry backoff, seconds
    max_delay: float = 300.0     #: backoff growth cap, seconds
    jitter: float = 0.5          #: uniform jitter half-width (0 = none)
    max_pending: int = 256       #: queue bound; overflow is terminal

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay <= 0:
            raise ValueError(
                f"base_delay must be positive, got {self.base_delay}"
            )
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay must be >= base_delay, got {self.max_delay}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )

    def to_dict(self) -> dict:
        """JSON-compatible dict; round-trips via :meth:`from_dict`."""
        from repro.serialize import shallow_dict

        return shallow_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        """Build from a (possibly partial) dict; unknown keys raise."""
        from repro.serialize import check_fields

        check_fields(cls, data)
        return cls(**data)

    def delay_for(self, attempt: int, jitter_draw: float) -> float:
        """Backoff before resubmission *attempt* (1-based).

        ``jitter_draw`` is a uniform [0, 1) sample from the request's
        stream; the caller owns the randomness so this stays pure.
        """
        delay = min(self.max_delay, self.base_delay * 2.0 ** (attempt - 1))
        return delay * (1.0 - self.jitter + 2.0 * self.jitter * jitter_draw)


class _Entry:
    __slots__ = ("request", "attempt", "event", "delay")

    def __init__(self, request: Request) -> None:
        self.request = request
        self.attempt = 1
        self.event = None
        self.delay = 0.0


class RetryQueue:
    """Bounded backoff-and-resubmit loop over admission and failover.

    Args:
        engine: the simulation engine.
        controller: the cluster front door (resubmissions go through
            :meth:`DistributionController.resubmit`).
        streams: the run's RNG substream factory (jitter draws).
        policy: backoff configuration.
        tracer: optional obs tracer (``request.retry`` /
            ``request.retry_exhaust`` records).
    """

    def __init__(
        self,
        engine: Engine,
        controller: DistributionController,
        streams: RandomStreams,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.controller = controller
        self.streams = streams
        self.policy = policy or RetryPolicy()
        self.tracer = tracer
        self.metrics = controller.metrics
        self._entries: Dict[int, _Entry] = {}

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests currently waiting for a resubmission."""
        return len(self._entries)

    # ------------------------------------------------------------------
    # Controller notifications
    # ------------------------------------------------------------------
    def on_decision(self, outcome: AdmissionOutcome, request: Request) -> None:
        entry = self._entries.get(request.request_id)
        if outcome.accepted:
            if entry is not None:
                # A managed resubmission made it back in; success
                # accounting already happened in the admission layer.
                del self._entries[request.request_id]
            return
        if entry is not None:
            # A managed resubmission was rejected again: freeze the
            # viewer again (identity when nothing was ever sent) and
            # back off further.
            if request.bytes_sent > EPS_MB:
                request.pause_playback(self.engine.now)
            self._reschedule(entry)
        else:
            self._enqueue(request)

    def on_drop(self, request: Request) -> None:
        """A live stream was dropped: stall the viewer, queue it."""
        now = self.engine.now
        if request.bytes_sent > EPS_MB:
            request.pause_playback(now)
        self._enqueue(request)

    # ------------------------------------------------------------------
    # Queue mechanics
    # ------------------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        if len(self._entries) >= self.policy.max_pending:
            self._exhaust(request, attempts=0, reason="queue_full")
            return
        entry = _Entry(request)
        self._entries[request.request_id] = entry
        self._schedule(entry)

    def _reschedule(self, entry: _Entry) -> None:
        entry.attempt += 1
        if entry.attempt > self.policy.max_attempts:
            del self._entries[entry.request.request_id]
            self._exhaust(
                entry.request,
                attempts=entry.attempt - 1,
                reason="max_attempts",
            )
            return
        self._schedule(entry)

    def _schedule(self, entry: _Entry) -> None:
        request = entry.request
        rng = self.streams.get(f"retry.req{request.request_id}")
        delay = self.policy.delay_for(entry.attempt, float(rng.random()))
        entry.delay = delay
        now = self.engine.now
        entry.event = self.engine.schedule(
            delay,
            lambda: self._fire(entry),
            kind=f"retry:req{request.request_id}",
        )
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_RETRY, now,
                request=request.request_id,
                video=request.video.video_id,
                attempt=entry.attempt, delay=delay,
            )

    def _fire(self, entry: _Entry) -> None:
        now = self.engine.now
        request = entry.request
        entry.event = None
        # Counted at fire time (not scheduling) so `retries` pairs 1:1
        # with the resubmission's arrival tick even if the run ends with
        # retries still queued.
        self.metrics.record_retry(entry.delay)
        request.prepare_retry(now)
        if request.playback_paused:
            # Optimistically resume; a re-rejection re-pauses at the
            # same instant in `on_decision` (net identity — the outage
            # has already been folded into `playback_start`).
            request.resume_playback(now)
        self.controller.resubmit(request)

    def _exhaust(self, request: Request, attempts: int, reason: str) -> None:
        self.metrics.record_retry_exhausted()
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.REQUEST_RETRY_EXHAUST, self.engine.now,
                request=request.request_id,
                video=request.video.video_id,
                attempts=attempts, reason=reason,
            )
