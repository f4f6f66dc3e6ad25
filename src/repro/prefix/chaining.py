"""Batching / chaining admission: share one server stream among viewers.

When a request arrives for a video whose newest accepted stream (the
**parent**) started less than ``window_seconds`` ago, the tier can admit
it as a **chained** session instead of opening a new server stream.
The child plays the video from three spliced sources:

1. **Cached prefix** — positions ``[0, prefix_used)`` stream from the
   proxy's prefix cache at exactly the view bandwidth, starting the
   instant the child is admitted.  Zero server bandwidth.
2. **Catch-up patch** — positions ``[prefix_used, gap_mb)`` (whatever
   the cache doesn't cover) stream from a data server as an ordinary —
   but *truncated* — admission.  The patch occupies a server slot only
   for ``patch_mb / b_view`` seconds instead of the full video.
3. **Shared feed** — positions ``[gap_mb, size)`` arrive as a relay of
   the parent's *playout*: the parent client forwards each byte at the
   moment it plays it, so position ``p`` is delivered at
   ``parent.playback_start + p / b_view``.  Zero incremental server
   bandwidth, and — because the relay follows the playout schedule, not
   the parent's transmission — it is independent of the parent's
   workahead, buffer history, or DRM migrations (the parent's own
   minimum-flow invariant keeps *its* playback fed; the relay simply
   echoes it).

The no-underrun argument, with ``gap = child.start − parent.start``:
the child plays position ``p`` at ``child.start + p/b_view``; the relay
delivers it at ``parent.start + p/b_view`` — exactly ``gap`` seconds
earlier.  The cached prefix is delivered exactly on the playout
schedule, and the patch is an ordinary minimum-flow stream (rate ≥
``b_view``), so every source runs at or ahead of playback.  The child's
client buffers the early relay bytes, which is why admission requires
``client.buffer_capacity >= gap_mb``.  Full derivation in
``docs/CACHING.md``.

Batching policies live in the :data:`BATCHING` registry — callables
``(tier, request, parent, gap_seconds, prefix_mb, now) ->
Optional[ChainPlan]`` returning None to decline:

* ``window`` — chain only when the cached prefix covers the whole gap
  (no patch stream ever opened).
* ``patch``  — additionally open a truncated catch-up stream for the
  uncached part of the gap.
* ``none``   — never chain (cache-only operation; the live gateway
  requires this mode since chained sessions have no server stream for
  its pacing loop to drain).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.cluster.request import EPS_MB, Request, RequestState
from repro.registry import Registry
from repro.workload.catalog import Video

#: Pluggable batching/chaining admission policies.
BATCHING: Registry = Registry("batching policy")


class ChainPlan(NamedTuple):
    """The splice geometry decided at admission time (all Mb / seconds).

    Attributes:
        gap_seconds: child start minus parent playback start.
        gap_mb: bytes the child must source outside the shared feed
            (``gap_seconds * b_view``).
        prefix_mb: leading part of the gap served from the cache.
        patch_mb: remainder of the gap served by a truncated server
            stream (0 for pure chains).
    """

    gap_seconds: float
    gap_mb: float
    prefix_mb: float
    patch_mb: float


def _gap_mb(tier, request: Request, gap_seconds: float) -> Optional[float]:
    """Shared admission gates; returns the gap in Mb, or None to decline."""
    if gap_seconds < 0 or gap_seconds > tier.policy.window_seconds:
        return None
    gap_mb = request.view_bandwidth * gap_seconds
    # The relay runs `gap_seconds` ahead of the child's playout, so the
    # client must be able to stage the whole gap.
    if request.client.buffer_capacity + EPS_MB < gap_mb:
        return None
    return gap_mb


@BATCHING.register(
    "window",
    help="chain when the cached prefix covers the whole join gap",
)
def batch_window(
    tier, request, parent, gap_seconds: float, prefix_mb: float, now: float
) -> Optional[ChainPlan]:
    gap_mb = _gap_mb(tier, request, gap_seconds)
    if gap_mb is None:
        return None
    used = min(prefix_mb, gap_mb)
    if gap_mb - used > EPS_MB:
        return None  # uncovered gap and no patching in this policy
    return ChainPlan(gap_seconds, gap_mb, used, 0.0)


@BATCHING.register(
    "patch",
    help="chain with a truncated catch-up stream for the uncached gap",
)
def batch_patch(
    tier, request, parent, gap_seconds: float, prefix_mb: float, now: float
) -> Optional[ChainPlan]:
    gap_mb = _gap_mb(tier, request, gap_seconds)
    if gap_mb is None:
        return None
    used = min(prefix_mb, gap_mb)
    return ChainPlan(gap_seconds, gap_mb, used, max(0.0, gap_mb - used))


@BATCHING.register(
    "none",
    help="never chain (cache-only; required by the live gateway)",
)
def batch_none(
    tier, request, parent, gap_seconds: float, prefix_mb: float, now: float
) -> Optional[ChainPlan]:
    return None


class ChainedSession:
    """Runtime state of one chained (shared) session.

    ``child`` is the chained request; for *patch* chains its ``video``
    and ``size`` are truncated to the patch while it streams, so this
    object keeps the original :class:`Video` for the full-session math.

    Attributes:
        merged: patch transmission complete (True from the start for
            pure chains) — the session is fully carried by the feed.
        parent_finished: the parent's server transmission has completed
            (its playout — and hence the relay — continues regardless).
        severed_at: time the shared feed was lost to a parent drop, or
            None while healthy.
        finished: terminal flag set by the tier when delivery completes.
    """

    __slots__ = (
        "child",
        "parent",
        "video",
        "join_time",
        "plan",
        "merged",
        "parent_finished",
        "severed_at",
        "finished",
    )

    def __init__(
        self, child: Request, parent: Request, video: Video,
        join_time: float, plan: ChainPlan,
    ) -> None:
        self.child = child
        self.parent = parent
        self.video = video
        self.join_time = float(join_time)
        self.plan = plan
        self.merged = plan.patch_mb <= EPS_MB
        self.parent_finished = False
        self.severed_at: Optional[float] = None
        self.finished = False

    # -- the no-underrun invariant --------------------------------------
    def margin(self, now: float) -> float:
        """Contiguous delivery minus the child's playout by *now*, Mb —
        negative means underrun.

        Only bytes contiguous from position 0 count: the cached prefix
        streams at ``b_view`` from the join, then the patch as its server
        stream projects, then the feed up to the parent's playout
        position (frozen at ``severed_at``).  One frame, no ``min`` /
        ``max``: the float operations, in order, of the three-curve
        reference in ``tests/test_prefix.py``, so the two agree exactly.
        """
        plan = self.plan
        video = self.video
        vb = video.view_bandwidth
        size = video.size
        elapsed = now - self.join_time
        played = vb * (elapsed if elapsed > 0.0 else 0.0)
        consumed = played if played < size else size
        prefix_mb = plan.prefix_mb
        if played + EPS_MB < prefix_mb:
            return played - consumed  # still draining the cached prefix
        patch_mb = plan.patch_mb
        if patch_mb > EPS_MB:
            child = self.child
            sent = child.bytes_sent
            if child.state is RequestState.ACTIVE and child.server_id is not None:
                last = child.last_sync
                sent = sent + child.rate * ((last if last > now else now) - last)
            covered = prefix_mb + (sent if sent < patch_mb else patch_mb)
            if covered + EPS_MB < plan.gap_mb:
                return covered - consumed  # patch still catching up
        severed = self.severed_at
        horizon = severed if severed is not None and severed < now else now
        ahead = horizon - self.parent.playback_start
        frontier = vb * (ahead if ahead > 0.0 else 0.0)
        gap_mb = plan.gap_mb
        delivered = frontier if frontier > gap_mb else gap_mb
        return (delivered if delivered < size else size) - consumed

    @property
    def delivery_end(self) -> float:
        """Time the feed delivers the last byte: the parent's playout
        end (the relay echoes the parent's playback)."""
        return self.parent.playback_start + self.video.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ChainedSession child=#{self.child.request_id} "
            f"parent=#{self.parent.request_id} video={self.video.video_id} "
            f"gap={self.plan.gap_seconds:.1f}s patch={self.plan.patch_mb:.1f}Mb"
            f"{' merged' if self.merged else ''}"
            f"{' severed' if self.severed_at is not None else ''}>"
        )
