"""Per-stream fluid-flow state: the request lifecycle.

A request is admitted, plays back at ``b_view`` from the moment of
admission, and receives data from its assigned server at a
piecewise-constant rate chosen by the bandwidth allocator.  Between
scheduler events the state evolves linearly, so we integrate lazily:
:meth:`Request.sync` advances ``bytes_sent`` by ``rate * dt`` and
reports the delta to the metrics sink.  A stream at its ``b_view``
floor may go unsynced for many events (the allocator visits only the
streams that move), so every reader projects with
:meth:`Request.sent_at` instead of reading ``bytes_sent``.

Derived quantities (Section 3.3 of the paper):

* ``bytes_viewed(t) = min(size, b_view * (t - playback_start))``
* ``buffer(t) = sent_at(t) - bytes_viewed(t)``  — staging occupancy
* ``headroom(t) = min(capacity - buffer, size - sent_at(t))`` — how much
  workahead the client can still absorb
* ``t + remaining(t) / b_view`` — the projected finish, EFTF's sort key
  (``Request.floor_key``).  Streams with different view bandwidths
  order differently by it than by ``remaining``; at ``b_view`` it stays
  constant.

The **minimum-flow invariant** (every unfinished request transmits at
``rate >= b_view``) guarantees ``buffer(t) >= 0``; the only exception is
a migration switch gap, which is allowed to eat into the buffer and is
bounded by the eligibility check in :mod:`repro.core.migration`.
"""

from __future__ import annotations

import enum
from math import inf
from typing import Optional, TYPE_CHECKING

from repro.cluster.client import ClientProfile
from repro.workload.catalog import Video

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.analysis.metrics import MetricsSink

#: Float tolerance for "zero megabits" comparisons, chosen far below a
#: single bit at our scales (videos are 10**3..10**5 Mb).
EPS_MB: float = 1e-6


class RequestState(enum.Enum):
    """Lifecycle states of a request."""

    ACTIVE = "active"          #: admitted, transmission in progress
    FINISHED = "finished"      #: all data sent (playback may continue)
    REJECTED = "rejected"      #: admission denied
    DROPPED = "dropped"        #: lost mid-stream (server failure)


class Request:
    """One admitted (or rejected) stream.

    Attributes:
        request_id: unique within its simulation, in arrival order
            (the distribution controller numbers its requests).
        video: the requested :class:`~repro.workload.catalog.Video`.
        client: receiving client's :class:`ClientProfile`.
        arrival_time: submission time.
        server_id: current assigned server (None before admission /
            after rejection).
        rate: current transmission rate, Mb/s.
        bytes_sent: cumulative megabits transmitted.
        hops: number of times this stream has been migrated.
        retry_draws: backoff jitter draws taken from the request's
            ``retry.req<id>`` stream so far (:mod:`repro.faults.retry`).
        paused_until: end of a migration switch gap during which the
            stream receives no data (0 when not paused).  Set before the
            move attaches the stream to its new server, which records it
            (:attr:`DataServer.gap_until`).
        floor_key: projected finish while the stream sits in its
            server's floor order (see :class:`DataServer`), else None.
    """

    __slots__ = (
        "request_id",
        "video",
        "client",
        "size",
        "view_bandwidth",
        "arrival_time",
        "server_id",
        "state",
        "rate",
        "bytes_sent",
        "last_sync",
        "playback_start",
        "hops",
        "retry_draws",
        "paused_until",
        "finish_time",
        "reject_reason",
        "playback_pause_time",
        "pauses",
        "floor_key",
    )

    def __init__(
        self,
        video: Video,
        client: ClientProfile,
        arrival_time: float,
        request_id: int,
    ) -> None:
        self.request_id = request_id
        self.video = video
        self.client = client
        # Hot-loop copies of video attributes (saves an indirection in
        # the allocator's inner loop); every transfer computation reads
        # ``size``, so swap the video through :meth:`set_video` only.
        self.size = video.size
        self.view_bandwidth = video.view_bandwidth
        self.arrival_time = float(arrival_time)
        self.server_id: Optional[int] = None
        self.state = RequestState.ACTIVE
        self.rate = 0.0
        self.bytes_sent = 0.0
        self.last_sync = float(arrival_time)
        self.playback_start = float(arrival_time)
        self.hops = 0
        self.retry_draws = 0
        self.paused_until = 0.0
        self.finish_time: Optional[float] = None
        #: Why admission last refused this request (``no_replica`` /
        #: ``holders_full`` / ``chain_exhausted``); ``None`` if it never did.
        self.reject_reason: Optional[str] = None
        #: Time playback was paused by the viewer (VCR interactivity);
        #: ``inf`` while playing.  ``playback_start`` shifts forward on
        #: resume so ``bytes_viewed`` stays a single linear formula.
        self.playback_pause_time = inf
        #: Number of VCR pauses performed so far.
        self.pauses = 0
        self.floor_key: Optional[float] = None

    def set_video(self, video: Video) -> None:
        """Swap what is left to transfer (the prefix tier truncates a
        request to its catch-up patch), keeping ``size`` in step."""
        self.video = video
        self.size = video.size

    # ------------------------------------------------------------------
    # Lazy integration
    # ------------------------------------------------------------------
    def sync(self, now: float, metrics: "Optional[MetricsSink]" = None) -> float:
        """Integrate state forward to *now*; returns megabits transferred.

        Clamps at the video size (the finish boundary is scheduled
        exactly, so any overshoot is float noise).  Reports the clamped
        delta to *metrics* attributed to the current server.
        """
        dt = now - self.last_sync
        if dt < 0:
            raise ValueError(
                f"sync backwards: now={now} < last_sync={self.last_sync}"
            )
        delta = self.rate * dt
        remaining = self.size - self.bytes_sent
        if delta > remaining:
            delta = remaining
        self.bytes_sent += delta
        self.last_sync = now
        if metrics is not None and delta > 0.0:
            metrics.record_bytes(self.server_id, delta)
        return delta

    # ------------------------------------------------------------------
    # Derived quantities (read-only; *now* must be >= last_sync)
    # ------------------------------------------------------------------
    def sent_at(self, now: float) -> float:
        """Megabits sent by *now* at the current rate, unclamped — the
        projection every reader of a lazily integrated stream uses;
        callers clamp at ``size`` or at ``last_sync`` as they need."""
        return self.bytes_sent + self.rate * (now - self.last_sync)

    def remaining(self, now: float) -> float:
        """Megabits still to transmit at *now*."""
        return max(0.0, self.size - self.sent_at(now))

    def bytes_viewed(self, now: float) -> float:
        """Megabits consumed by playback by time *now*.

        While the viewer has paused (VCR interactivity) consumption is
        frozen at the pause instant.
        """
        played_until = min(now, self.playback_pause_time)
        elapsed = max(0.0, played_until - self.playback_start)
        return min(self.size, self.view_bandwidth * elapsed)

    def buffer_occupancy(self, now: float) -> float:
        """Client staging buffer occupancy, Mb (>= 0 up to float noise)."""
        sent = min(self.size, self.sent_at(now))
        return max(0.0, sent - self.bytes_viewed(now))

    def headroom(self, now: float) -> float:
        """Workahead the client can still absorb, Mb."""
        by_capacity = self.client.buffer_capacity - self.buffer_occupancy(now)
        return max(0.0, min(by_capacity, self.remaining(now)))

    def is_paused(self, now: float) -> bool:
        """True during a migration switch gap."""
        return now < self.paused_until

    # ------------------------------------------------------------------
    # VCR interactivity (paper future work: "interactivity in
    # semi-continuous transmission")
    # ------------------------------------------------------------------
    @property
    def playback_paused(self) -> bool:
        """True while the viewer has hit pause."""
        return self.playback_pause_time != inf

    def pause_playback(self, now: float) -> None:
        """Viewer pauses; consumption freezes, transmission may continue
        into the staging buffer.  Idempotent."""
        if self.playback_paused:
            return
        if now < self.playback_start:
            raise ValueError(
                f"cannot pause at {now} before playback start "
                f"{self.playback_start}"
            )
        self.playback_pause_time = float(now)
        self.pauses += 1

    def resume_playback(self, now: float) -> None:
        """Viewer resumes; the playback clock shifts by the pause length
        so ``bytes_viewed`` remains a single linear formula.  Idempotent."""
        if not self.playback_paused:
            return
        if now < self.playback_pause_time:
            raise ValueError(
                f"cannot resume at {now} before the pause at "
                f"{self.playback_pause_time}"
            )
        self.playback_start += now - self.playback_pause_time
        self.playback_pause_time = inf

    # ------------------------------------------------------------------
    # Retry lifecycle (graceful degradation, repro.faults.retry)
    # ------------------------------------------------------------------
    def prepare_retry(self, now: float) -> None:
        """Re-enter the admission pipeline at *now* after a rejection or
        a mid-stream drop.

        A never-served request restarts playback from the resubmission
        instant; a dropped stream keeps its transmitted bytes (the
        viewer's player is stalled — the retry queue freezes consumption
        via :meth:`pause_playback` at drop time and resumes it only once
        the stream is re-admitted).
        """
        if self.state not in (RequestState.REJECTED, RequestState.DROPPED):
            raise ValueError(
                f"cannot retry a request in state {self.state.value}"
            )
        self.state = RequestState.ACTIVE
        self.rate = 0.0
        self.server_id = None
        self.finish_time = None
        self.last_sync = float(now)
        if self.bytes_sent <= EPS_MB and not self.playback_paused:
            # Nothing was ever sent: playback starts when (if) the
            # retry is admitted, not at the original arrival.
            self.playback_start = float(now)

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def mark_finished(self, now: float) -> None:
        """Record transmission completion."""
        self.state = RequestState.FINISHED
        self.finish_time = now
        self.rate = 0.0

    def mark_rejected(self, reason: str) -> None:
        self.state = RequestState.REJECTED
        self.server_id = None
        self.reject_reason = reason

    def mark_dropped(self, now: float) -> None:
        """Stream lost (e.g. server failure with no migration target)."""
        self.state = RequestState.DROPPED
        self.finish_time = now
        self.rate = 0.0
        self.server_id = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Request #{self.request_id} video={self.video.video_id} "
            f"{self.state.value} srv={self.server_id} sent={self.bytes_sent:.1f}"
            f"/{self.size:.1f}Mb rate={self.rate:.2f}>"
        )
