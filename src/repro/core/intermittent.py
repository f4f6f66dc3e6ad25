"""Intermittent transmission: beyond the minimum-flow class.

Section 3.3 defines *intermittent algorithms* — "the class of
algorithms where a stream alternates between periods of transmission
and no transmission" — and then deliberately restricts the paper to
minimum-flow algorithms because "the decision procedure for the optimal
intermittent algorithm is impractical to apply in real time".  This
module implements a *practical* member of the intermittent class as the
paper's flagged future-work direction:

* a stream whose client has banked more than ``park_seconds`` of
  playback may be **parked** (rate 0) — its viewer plays from the
  staging buffer;
* parked streams release their whole view bandwidth, which the
  allocator hands to needier streams (ascending buffered-seconds) and
  then, EFTF-style, to workahead;
* a parked stream is resumed once its buffer drains toward
  ``resume_seconds``.

Combined with **overbooked admission** (only non-parked streams count
against the slot test — see :class:`repro.core.admission`'s
``overbook`` mode) this lets a server carry more concurrent viewers
than its SVBR, at the cost of possible **underruns** when the gamble
fails; underruns are counted, never hidden.

Invariant differences from the minimum-flow class (handled by the
transmission manager via :attr:`BandwidthAllocator.minimum_flow`):

* an unpaused stream may legitimately have ``rate < b_view``, so the
  next-boundary scan adds a *buffer-empty* boundary — the trigger the
  paper lists but that minimum-flow scheduling can never fire;
* ``bytes_viewed`` is capped at ``bytes_sent`` (a starved viewer stalls
  rather than watching data that never arrived).
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.cluster.request import EPS_MB, Request
from repro.cluster.server import DataServer
from repro.core.schedulers import (
    EPS_RATE,
    BandwidthAllocator,
    PassResult,
    pour_in_order,
)


class IntermittentAllocator(BandwidthAllocator):
    """Park well-buffered streams; feed the needy first, then EFTF.

    Args:
        park_seconds: buffered playback above which a stream may be
            parked (default 120 s).
        resume_seconds: buffered playback below which a stream must be
            transmitting again (default 30 s).  The gap between the two
            thresholds provides hysteresis so streams don't flap.
        refill_seconds: minimum headroom (in seconds of playback) before
            a stream is eligible for workahead again (default 5 s).
            Without this a parked stream sitting at its buffer cap
            oscillates at float granularity: draining at ``b_view``
            regrows microscopic headroom that EFTF refills instantly —
            a measured event storm.
    """

    name = "intermittent"
    minimum_flow = False

    def __init__(
        self,
        park_seconds: float = 120.0,
        resume_seconds: float = 30.0,
        refill_seconds: float = 5.0,
    ) -> None:
        if park_seconds <= resume_seconds:
            raise ValueError(
                f"park_seconds ({park_seconds}) must exceed "
                f"resume_seconds ({resume_seconds}) for hysteresis"
            )
        if resume_seconds < 0:
            raise ValueError(
                f"resume_seconds must be >= 0, got {resume_seconds}"
            )
        if refill_seconds < 0:
            raise ValueError(
                f"refill_seconds must be >= 0, got {refill_seconds}"
            )
        self.park_seconds = float(park_seconds)
        self.resume_seconds = float(resume_seconds)
        self.refill_seconds = float(refill_seconds)

    def _assign(
        self, server: DataServer, requests: Sequence[Request], now: float
    ) -> PassResult:
        moved = 0.0
        live: List[Request] = []
        for r in requests:
            moved += r.sync(now)
            r.rate = 0.0
            if not now < r.paused_until:
                live.append(r)
        pool = server.bandwidth
        # Base pass: neediest first (ascending seconds of buffered
        # playback, ties by id).  Streams already holding more than
        # park_seconds — and VCR-paused viewers, whose buffers never
        # drain — wait for the spare pass.
        def buffered_seconds(r: Request) -> float:
            played_until = min(now, r.playback_pause_time)
            buf = r.bytes_sent - (played_until - r.playback_start) * r.view_bandwidth
            return max(0.0, buf) / r.view_bandwidth

        order = sorted(live, key=lambda r: (buffered_seconds(r), r.request_id))
        for r in order:
            if r.size - r.bytes_sent <= EPS_MB:
                continue  # nothing left to send
            if r.playback_pause_time <= now:
                continue  # viewer paused: no drain, no urgency
            if buffered_seconds(r) >= self.park_seconds:
                continue  # parked: plays from its staging buffer
            if pool < r.view_bandwidth - EPS_RATE:
                break  # genuinely over-committed; later streams starve
            r.rate = r.view_bandwidth
            pool -= r.view_bandwidth
        # Spare pass: classic EFTF over everyone with headroom (a parked
        # stream can still absorb workahead when nobody needs the link).
        if pool > EPS_RATE:
            candidates = []
            for r in live:
                extra_cap = r.client.receive_bandwidth - r.rate
                if extra_cap <= EPS_RATE:
                    continue
                remaining = r.size - r.bytes_sent
                if remaining <= EPS_MB:
                    continue
                played_until = min(now, r.playback_pause_time)
                head = r.client.buffer_capacity - (
                    r.bytes_sent
                    - (played_until - r.playback_start) * r.view_bandwidth
                )
                # Refill hysteresis: demand real headroom, not the
                # float-granularity sliver a draining parked stream
                # regrows at its cap (see class docstring).
                if head <= self.refill_seconds * r.view_bandwidth + EPS_MB:
                    continue
                candidates.append((remaining, r.request_id, r, extra_cap))
            candidates.sort()
            pour_in_order(candidates, pool)
        # Any stream may sit below b_view, so every boundary goes
        # through the manager's general rule.
        return moved, math.inf, requests

    def _distribute_spare_into(self, candidates, spare):  # pragma: no cover
        raise AssertionError(
            "IntermittentAllocator replaces _assign(); the minimum-flow "
            "spare hook is unused"
        )
