"""Graceful degradation: a bounded retry queue with backoff + jitter.

Without this, a rejected or failure-orphaned request is simply gone —
fine for the paper's steady-state utilization measurements, wrong for a
server facing *schedules* of failures.  Once subscribed to the
controller the queue hears every admission decision (``on_decision``)
and every mid-flight drop (``on_drop``), and resubmits victims after
exponential backoff with per-request jitter:

* the **delay** for attempt *k* is ``base_delay * 2**(k-1)`` capped at
  ``max_delay``, scaled by a uniform jitter factor in
  ``[1 - JITTER, 1 + JITTER]`` drawn from the *request's own* RNG
  substream (``retry.req<id>``) — so two same-seed runs back off
  identically regardless of event interleaving.  The generator lives
  in the queue entry, built uncached by :meth:`RandomStreams.fresh`,
  and dies with it; a request queued again after a re-admission gets a
  new one advanced past the ``Request.retry_draws`` it already took, so
  its sequence continues unbroken and the queue's memory is bounded by
  :data:`MAX_PENDING`, not by the run's length;
* the queue is **bounded** (:data:`MAX_PENDING`) and each request gets
  at most ``max_attempts`` resubmissions; overflow and exhaustion are
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
from typing import Dict

import numpy as np

from repro.cluster.request import EPS_MB, Request
from repro.core.admission import AdmissionOutcome
from repro.obs.records import TraceKind
from repro.serialize import Config

#: Uniform jitter half-width of a backoff delay.
JITTER = 0.5

#: Queue bound; a request arriving at a full queue is exhausted.
MAX_PENDING = 256


@dataclass(frozen=True)
class RetryPolicy(Config):
    """Backoff configuration for the retry queue."""

    max_attempts: int = 4        #: resubmissions per request before giving up
    base_delay: float = 5.0      #: first-retry backoff, seconds
    max_delay: float = 300.0     #: backoff growth cap, seconds

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


    def delay_for(self, attempt: int, jitter_draw: float) -> float:
        """Backoff before resubmission *attempt* (1-based).

        ``jitter_draw`` is a uniform [0, 1) sample from the request's
        stream; the caller owns the randomness so this stays pure.
        """
        delay = min(self.max_delay, self.base_delay * 2.0 ** (attempt - 1))
        return delay * (1.0 - JITTER + 2.0 * JITTER * jitter_draw)


class _Entry:
    __slots__ = ("request", "rng", "attempt", "delay")

    def __init__(self, request: Request, rng: np.random.Generator) -> None:
        self.request = request
        self.rng = rng
        self.attempt = 1
        self.delay = 0.0


class RetryQueue:
    """Bounded backoff-and-resubmit loop over admission and failover.

    Built by :class:`~repro.simulation.Simulation` from its engine,
    controller (resubmissions go through
    :meth:`DistributionController.resubmit`), RNG substreams (jitter
    draws), tracer (``request.retry`` / ``request.retry_exhaust``
    records) and the ``retry`` config block.
    """

    def __init__(self, sim) -> None:
        self.engine = sim.engine
        self.controller = sim.controller
        self.streams = sim.streams
        self.policy: RetryPolicy = sim.config.retry
        self.tracer = sim.tracer
        self.metrics = sim.controller.metrics
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
        if len(self._entries) >= MAX_PENDING:
            self._exhaust(request, attempts=0, reason="queue_full")
            return
        rng = self.streams.fresh(f"retry.req{request.request_id}")
        if request.retry_draws:
            # Queued again after a re-admission: skip the draws already
            # taken (one ``random()`` is one bit-generator step).
            rng.bit_generator.advance(request.retry_draws)
        entry = _Entry(request, rng)
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
        delay = self.policy.delay_for(entry.attempt, float(entry.rng.random()))
        request.retry_draws += 1
        entry.delay = delay
        now = self.engine.now
        self.engine.schedule(
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
