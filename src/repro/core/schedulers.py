"""Minimum-flow bandwidth allocators, chiefly EFTF (Figure 2).

A *minimum-flow* algorithm gives every unfinished request at least its
view bandwidth; allocators differ only in how they hand out the spare.
The paper's **Earliest Finishing Time First** picks "the active request
with the earliest projected finishing time whose client also has
available buffer space and allocates as much bandwidth to that request
as can be handled by the receiving client" — i.e. spare goes, greedily,
in ascending order of ``t + remaining / b_view``.  That is the order of
``remaining`` only when every stream on the server shares one ``b_view``.

Theorem 1: with no receive-bandwidth limit and no pausing, EFTF is
optimal among minimum-flow algorithms.  The alternatives here exist to
*ablate* that choice empirically:

* :class:`NoWorkaheadAllocator` — never uses spare (pure continuous
  transmission; equivalent to a zero staging buffer).
* :class:`ProportionalShareAllocator` — splits spare evenly among
  eligible streams.
* :class:`LFTFAllocator` — anti-EFTF (latest finish first), a straw man
  that shows the greedy direction matters.

Allocation is **one pass per server event**
(:meth:`BandwidthAllocator.allocate_into`), and it visits only the
streams that move.  A stream playing at exactly ``b_view`` (not
VCR-paused) sits in its server's *floor order*
(:attr:`DataServer.floor`), untouched: its buffer occupancy and its
projected finish are constant there, so neither its spare candidacy nor
its place in the EFTF order can change.  The pass integrates the others,
retires the finished streams off the head of the floor order, and walks
the spare down the merged candidate order, integrating each floor stream
it reaches before boosting it, and returns the server's next boundary.

Performance note: this is the simulator's innermost loop, so the sync
and eligibility arithmetic is inlined on request attributes rather than
calling the readable ``Request.sync`` / ``Request.headroom`` helpers —
a hypothesis property (``tests/test_schedulers.py``) pins every pass,
within float noise, to the eager pass that re-tested every stream.
"""

from __future__ import annotations

import abc
import math
from bisect import insort
from typing import List, Sequence, Tuple

from repro.cluster.request import EPS_MB, Request
from repro.cluster.server import Candidate, DataServer
from repro.registry import Registry

#: Rate tolerance (Mb/s) below which spare bandwidth is considered spent.
EPS_RATE: float = 1e-9

#: What one pass hands the transmission manager: Mb transferred while
#: integrating to ``now``; the server's next boundary (``inf`` if none);
#: and the streams that finished, in active-list order (the manager
#: detaches them).  The *irregular* streams — VCR-paused, boosted — are
#: left in ``server.moved``, and the boosted streams found
#: at their buffer wall in ``server.walls``.
PassResult = Tuple[float, float, Sequence[Request]]

#: A policy's hand-out: (candidate, extra rate) pairs, each extra > 0.
Shares = List[Tuple[Candidate, float]]


def pour_in_order(
    first: List[Candidate], second: List[Candidate], spare: float
) -> Shares:
    """Greedy hand-out down the merge of two sorted candidate lists:
    each candidate in turn takes as much of *spare* as its client can
    receive, until the spare is gone.  Reads no further than that."""
    shares = []
    i = j = 0
    n_first, n_second = len(first), len(second)
    while True:
        if i < n_first and (j == n_second or first[i] < second[j]):
            c = first[i]
            i += 1
        elif j < n_second:
            c = second[j]
            j += 1
        else:
            return shares
        extra_cap = c[3]
        extra = spare if spare < extra_cap else extra_cap
        shares.append((c, extra))
        spare -= extra
        if spare <= EPS_RATE:
            return shares


class BandwidthAllocator(abc.ABC):
    """Interface: set the rates of one server's streams at *now*.

    Subclasses implement :meth:`_share_spare` only; nobody overrides
    :meth:`allocate_into`.
    """

    name: str = "abstract"

    def allocate_into(
        self, server: DataServer, requests: Sequence[Request], now: float
    ) -> PassResult:
        """The one allocation path: integrate *requests* to *now*, set
        every rate that moves, keep the floor order.

        *requests* are the server's streams outside its floor order
        (:attr:`DataServer.moved`); the pass leaves ``server.moved`` as
        the irregular streams, and ``server.walls`` as the playing
        streams it found at their buffer wall still boosted by the last
        pass (Section 3.3's "buffer full" trigger: every stream is
        attached at rate 0, so a rate above ``b_view + EPS_RATE`` on
        entry is that pass's boost).  The boundary is the earlier of the
        floor order's head and the irregular streams' walls at their new
        rates.

        Guarantees (enforced here, not in subclasses):
        * a stream with ``remaining <= EPS_MB`` is returned as finished,
          rate untouched — no floor, no boundary, no candidacy;
        * all other streams get >= view bandwidth (minimum flow), bar
          a VCR-paused viewer whose staging buffer is full;
        * the sum never exceeds the server link;
        * a playing stream left below ``b_view`` raises.

        The finished are taken off the head of the floor order until the
        first unfinished one.  With mixed view bandwidths a stream behind
        it could be within ``EPS_MB`` of done too (finish times less than
        ``EPS_MB / b_view`` apart); it finishes at the head's boundary.
        """
        moved = 0.0
        # View bandwidth of the streams that get no floor this pass.
        idle = 0.0
        irregular: List[Request] = []
        finished: List[Request] = []
        settling: List[Candidate] = []  # playing at b_view unless boosted
        visited: List[Candidate] = []
        walls: List[Request] = []
        for r in requests:
            # Inline of Request.sync (transfer reported once, by the
            # caller, as `moved`).
            sent = r.bytes_sent
            remaining = r.size - sent
            dt = now - r.last_sync
            if dt > 0.0:
                rate = r.rate
                if rate > 0.0:
                    delta = rate * dt
                    if delta > remaining:
                        delta = remaining
                    r.bytes_sent = sent = sent + delta
                    remaining = r.size - sent
                    moved += delta
                r.last_sync = now
            elif dt < 0.0:
                raise RuntimeError(
                    f"sync backwards on server {server.server_id}: "
                    f"{now} < {r.last_sync}"
                )
            vb = r.view_bandwidth
            if remaining <= EPS_MB:
                finished.append(r)
                idle += vb
                continue
            playing = now < r.playback_pause_time
            # Inline of Request.headroom: the capacity side here, the
            # data side (`remaining`) was the finished test above.
            # A VCR pause freezes consumption at the pause instant.
            client = r.client
            roomy = client.buffer_capacity - (
                sent - ((now if playing else r.playback_pause_time)
                        - r.playback_start) * vb
            ) > EPS_MB
            if not playing:
                irregular.append(r)
            if roomy:
                extra_cap = client.receive_bandwidth - vb
                if not extra_cap > EPS_RATE:
                    extra_cap = 0.0
            elif not playing:
                # Viewer hit pause (VCR) and the staging buffer cannot
                # absorb more: nothing drains, so the floor is exempt —
                # pumping on would overflow the client.
                r.rate = 0.0
                idle += vb
                continue
            else:
                if r.rate > vb + EPS_RATE:
                    walls.append(r)  # the boost ran into the wall
                extra_cap = 0.0
            r.rate = vb
            entry = (now + remaining / vb, r.request_id, r, extra_cap)
            if extra_cap:
                visited.append(entry)
            if playing:
                settling.append(entry)
        # The finished floor streams lead the floor order (and, if they
        # are candidates, the candidate order too).
        floor = server.floor
        candidates = server.floor_candidates
        while floor:
            r = floor[0][2]
            if r.size - r.sent_at(now) > EPS_MB:
                break
            moved += r.sync(now)
            del floor[0]
            if candidates and candidates[0][2] is r:
                del candidates[0]
            r.floor_key = None
            finished.append(r)
            idle += r.view_bandwidth
        link = server.bandwidth
        base = server.reserved_bandwidth - idle
        if base > link + EPS_MB:
            raise RuntimeError(
                f"minimum-flow violated on server {server.server_id}: "
                f"floor {base:.3f} > link {link:.3f} Mb/s"
            )
        spare = link - base
        if spare > EPS_RATE and (visited or candidates):
            visited.sort()
            for entry, extra in self._share_spare(visited, candidates, spare):
                r = entry[2]
                if r.floor_key is not None:
                    # A floor stream reached by the spare: integrate it
                    # at b_view to now; it leaves the order boosted.
                    moved += r.sync(now)
                    server.unfloor(r)
                    irregular.append(r)
                r.rate += extra
        for entry in settling:
            r = entry[2]
            if r.rate == r.view_bandwidth:
                r.floor_key = entry[0]
                insort(floor, entry)
                if entry[3]:
                    insort(candidates, entry)
            else:
                irregular.append(r)
        server.moved = irregular
        server.walls = walls
        # The general wall rule, for the streams the floor order's head
        # does not cover (inlines ``Request.buffer_occupancy``, kept
        # equivalent by tests).
        boundary = floor[0][0] if floor else math.inf
        for r in irregular:
            rate = r.rate
            vb = r.view_bandwidth
            sent = r.bytes_sent
            # A VCR-paused viewer consumes nothing: the buffer only
            # ever fills, never drains.
            playing = now < r.playback_pause_time
            drain = vb if playing else 0.0
            if rate < drain - EPS_RATE:
                # Minimum flow: a live, playing stream always has
                # rate >= b_view.
                raise RuntimeError(
                    f"playing stream {r.request_id} at {rate} Mb/s, "
                    f"below its view bandwidth {vb}, on server "
                    f"{server.server_id}"
                )
            if rate <= EPS_RATE:
                # VCR-paused with a full buffer: legitimately idle
                # until the viewer resumes.
                continue
            t = now + (r.size - sent) / rate
            surplus = rate - drain
            if surplus > EPS_RATE:
                capacity = r.client.buffer_capacity
                if capacity < math.inf:
                    played_until = now if playing else r.playback_pause_time
                    headroom = capacity - (
                        sent - (played_until - r.playback_start) * vb
                    )
                    if headroom < 0.0:
                        headroom = 0.0
                    t_full = now + headroom / surplus
                    if t_full < t:
                        t = t_full
            if t < boundary:
                boundary = t
        if len(finished) > 1:
            position = {rid: i for i, rid in enumerate(server.active)}
            finished.sort(key=lambda r: position[r.request_id])
        return moved, boundary, finished

    @abc.abstractmethod
    def _share_spare(
        self, visited: List[Candidate], floor: List[Candidate], spare: float
    ) -> Shares:
        """Say who gets *spare*: two candidate lists, each sorted by
        (projected finish, request id) — the streams this pass visited
        and the server's floor candidates — merged into one order.
        Consume only as much of the order as the policy needs (every
        floor stream taken is integrated and leaves the floor order);
        never give a candidate more than its extra cap, ``c[3]``."""


class EFTFAllocator(BandwidthAllocator):
    """Earliest Finishing Time First (the paper's Figure 2).

    Pours into eligible streams by ascending projected finish
    ``t + remaining / b_view``, giving each as much as the client can
    take until the spare is gone, so it reads only the head of the
    order.  Ties break on request id, making allocation deterministic.
    """

    name = "eftf"

    def _share_spare(self, visited, floor, spare):
        return pour_in_order(visited, floor, spare)


class LFTFAllocator(BandwidthAllocator):
    """Latest Finishing Time First — the adversarial mirror of EFTF.

    Boosting the stream with the *latest* projected finish keeps every
    stream unfinished for as long as possible, which is exactly what a
    minimum-flow algorithm should avoid.  Exists for ablation; it reads
    the whole order from the tail (ties still break on request id).
    """

    name = "lftf"

    def _share_spare(self, visited, floor, spare):
        order = sorted(visited + floor, key=lambda c: (-c[0], c[1]))
        return pour_in_order(order, [], spare)


class ProportionalShareAllocator(BandwidthAllocator):
    """Split spare evenly among eligible streams (water-filling).

    Repeatedly divides the spare equally, capping at each client's
    receive limit, until the spare is spent or no stream can take more.
    """

    name = "proportional"

    def _share_spare(self, visited, floor, spare):
        # Water-filling: loop because capping one stream frees share for
        # the others.  Terminates in <= len(candidates) rounds.
        got = {}
        pool = [(c, c[3]) for c in visited + floor]
        while spare > EPS_RATE and pool:
            share = spare / len(pool)
            next_round = []
            for c, cap in pool:
                extra = share if share < cap else cap
                if extra > EPS_RATE:
                    got[c] = got.get(c, 0.0) + extra
                    spare -= extra
                    if cap - extra > EPS_RATE:
                        next_round.append((c, cap - extra))
            if len(next_round) == len(pool):
                break  # nobody capped; share was fully dealt
            pool = next_round
        return list(got.items())


class NoWorkaheadAllocator(BandwidthAllocator):
    """Pure continuous transmission: spare bandwidth is never used.

    Equivalent to every client having a zero staging buffer; the
    baseline the paper's staging curves start from.
    """

    name = "none"

    def _share_spare(self, visited, floor, spare):
        return []  # leave the spare idle


#: Scheduler registry used by the simulation config layer; unknown keys
#: raise an actionable :class:`repro.registry.UnknownKeyError`.
ALLOCATORS: Registry[type] = Registry("scheduler")
ALLOCATORS.register(
    "eftf", EFTFAllocator,
    help="Earliest Finishing Time First (the paper's Figure 2; optimal "
         "minimum-flow allocator under Theorem 1)",
)
ALLOCATORS.register(
    "lftf", LFTFAllocator,
    help="Latest Finishing Time First — adversarial EFTF mirror (ablation)",
)
ALLOCATORS.register(
    "proportional", ProportionalShareAllocator,
    help="split spare evenly among eligible streams "
         "(water-filling)",
)
ALLOCATORS.register(
    "none", NoWorkaheadAllocator,
    help="pure continuous transmission: spare bandwidth stays idle",
)
