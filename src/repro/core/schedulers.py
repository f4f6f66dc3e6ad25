"""Minimum-flow bandwidth allocators, chiefly EFTF (Figure 2).

A *minimum-flow* algorithm gives every unfinished request at least its
view bandwidth; allocators differ only in how they hand out the spare.
The paper's **Earliest Finishing Time First** picks "the active request
with the earliest projected finishing time whose client also has
available buffer space and allocates as much bandwidth to that request
as can be handled by the receiving client" — i.e. spare goes, greedily,
to the stream with the least data left.

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
(:meth:`BandwidthAllocator.allocate_into`): per stream it integrates the
transfer to ``now``, splits the stream off if that finished it, else
sets the minimum-flow floor, tests spare candidacy and folds the
stream's finish boundary into a running minimum; the subclass hook then
hands out the spare.  A paused stream (mid-migration switch gap) gets
rate 0 — its playback is covered by the staging buffer, which the
migration eligibility check guarantees.

Performance note: this is the simulator's innermost loop, so the sync
and eligibility arithmetic is inlined on request attributes rather than
calling the readable ``Request.sync`` / ``Request.headroom`` helpers —
a hypothesis property (``tests/test_schedulers.py``) pins the pass to a
reference assembled from those helpers, float for float.
"""

from __future__ import annotations

import abc
import math
from typing import Collection, List, Optional, Sequence, Tuple

from repro.cluster.request import EPS_MB, Request
from repro.cluster.server import DataServer
from repro.registry import Registry

#: Rate tolerance (Mb/s) below which spare bandwidth is considered spent.
EPS_RATE: float = 1e-9

#: A spare-bandwidth candidate: (remaining Mb, request id, request,
#: extra rate the client can take).  The first two fields are the EFTF
#: sort key (ascending remaining = earliest projected finish).
Candidate = Tuple[float, int, Request, float]

#: What one pass hands the transmission manager: Mb transferred while
#: integrating to ``now``; the earliest boundary among streams playing
#: at ``b_view``; the *irregular* streams — switch-gap, VCR-paused,
#: boosted — whose next boundary needs the manager's general rule; and
#: the streams the integration finished (the manager detaches them).
PassResult = Tuple[float, float, Sequence[Request], Sequence[Request]]


def pour_in_order(candidates: Sequence[Candidate], spare: float) -> None:
    """Greedy hand-out: each candidate in list order takes as much of
    *spare* as its client can receive, until the spare is gone."""
    for _remaining, _rid, r, extra_cap in candidates:
        extra = spare if spare < extra_cap else extra_cap
        r.rate += extra
        spare -= extra
        if spare <= EPS_RATE:
            break


class BandwidthAllocator(abc.ABC):
    """Interface: set every stream's rate for (server, requests, now).

    Subclasses implement :meth:`_distribute_spare_into` only; nobody
    overrides :meth:`allocate_into`.
    """

    name: str = "abstract"

    #: Scratch list reused across passes (the simulator is
    #: single-threaded and allocators never retain the list beyond one
    #: ``_distribute_spare_into`` call, so reuse is safe and avoids one
    #: list allocation per event).
    _scratch: Optional[List[Candidate]] = None

    def allocate_into(
        self, server: DataServer, requests: Collection[Request], now: float
    ) -> PassResult:
        """The one allocation path: integrate every request to *now*
        and set its ``rate`` in place, one loop over *requests*.

        *requests* is the server's full active list; callers need not
        sync first (a zero-``dt`` sync is an arithmetic no-op).

        Guarantees (enforced here, not in subclasses):
        * a stream with ``remaining <= EPS_MB`` is returned as finished,
          rate untouched — no floor, no boundary, no candidacy;
        * switch-gap streams get 0;
        * all other streams get >= view bandwidth (minimum flow), bar
          a VCR-paused viewer whose staging buffer is full;
        * the sum never exceeds the server link.
        """
        moved = 0.0
        base = 0.0
        # min of remaining / b_view over playing streams.  Adding `now`
        # once at the end is bit-identical to a min of `now + quotient`
        # (float addition is monotone); and since a min is order-free,
        # a stream boosted later may stay folded in — its true
        # boundary, found by the general rule, is earlier.
        nearest = math.inf
        irregular: List[Request] = []
        finished: List[Request] = []
        candidates = self._scratch
        if candidates is None:
            candidates = []
        else:
            self._scratch = None  # guard against re-entrant use
        append = candidates.append
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
            if remaining <= EPS_MB:
                finished.append(r)
                continue
            if now < r.paused_until:
                r.rate = 0.0
                irregular.append(r)
                continue
            vb = r.view_bandwidth
            playing = now < r.playback_pause_time
            if playing:
                played_until = now
                quotient = remaining / vb
                if quotient < nearest:
                    nearest = quotient
            else:
                played_until = r.playback_pause_time
                irregular.append(r)
            # Inline of Request.headroom: the capacity side here, the
            # data side (`remaining`) was the finished test above.
            # `played_until` freezes consumption during VCR pauses.
            client = r.client
            roomy = client.buffer_capacity - (
                sent - (played_until - r.playback_start) * vb
            ) > EPS_MB
            if not (playing or roomy):
                # Viewer hit pause (VCR) and the staging buffer cannot
                # absorb more: nothing drains, so the floor is exempt —
                # pumping on would overflow the client.
                r.rate = 0.0
                continue
            r.rate = vb
            base += vb
            if roomy:
                extra_cap = client.receive_bandwidth - vb
                if extra_cap > EPS_RATE:
                    append((remaining, r.request_id, r, extra_cap))
        link = server.bandwidth
        if base > link + EPS_MB:
            raise RuntimeError(
                f"minimum-flow violated on server {server.server_id}: "
                f"floor {base:.3f} > link {link:.3f} Mb/s"
            )
        spare = link - base
        if spare > EPS_RATE and candidates:
            self._distribute_spare_into(candidates, spare)
            for _remaining, _rid, r, _cap in candidates:
                # VCR-paused streams are irregular already.
                if r.rate != r.view_bandwidth and now < r.playback_pause_time:
                    irregular.append(r)
        candidates.clear()  # drop Request refs before parking
        self._scratch = candidates
        return moved, now + nearest, irregular, finished

    @abc.abstractmethod
    def _distribute_spare_into(
        self, candidates: List[Candidate], spare: float
    ) -> None:
        """Add *spare* bandwidth onto ``r.rate`` of eligible
        *candidates*, in place (each already holds its ``b_view``
        floor; never exceed a candidate's ``extra_cap``)."""


class EFTFAllocator(BandwidthAllocator):
    """Earliest Finishing Time First (the paper's Figure 2).

    Iterates eligible streams by ascending remaining data (equivalently
    ascending projected finish), giving each as much as the client can
    take until the spare is gone.  Ties break on request id, making
    allocation deterministic.
    """

    name = "eftf"

    def _distribute_spare_into(self, candidates, spare):
        candidates.sort()
        pour_in_order(candidates, spare)


class LFTFAllocator(BandwidthAllocator):
    """Latest Finishing Time First — the adversarial mirror of EFTF.

    Boosting the stream with the *most* data left keeps every stream
    unfinished for as long as possible, which is exactly what a
    minimum-flow algorithm should avoid.  Exists for ablation.
    """

    name = "lftf"

    def _distribute_spare_into(self, candidates, spare):
        candidates.sort(key=lambda c: (-c[0], c[1]))
        pour_in_order(candidates, spare)


class ProportionalShareAllocator(BandwidthAllocator):
    """Split spare evenly among eligible streams (water-filling).

    Repeatedly divides the spare equally, capping at each client's
    receive limit, until the spare is spent or no stream can take more.
    """

    name = "proportional"

    def _distribute_spare_into(self, candidates, spare):
        # Water-filling: loop because capping one stream frees share for
        # the others.  Terminates in <= len(candidates) rounds.
        pool = [(r, cap) for _rem, _rid, r, cap in candidates]
        while spare > EPS_RATE and pool:
            share = spare / len(pool)
            next_round = []
            for r, cap in pool:
                extra = share if share < cap else cap
                if extra > EPS_RATE:
                    r.rate += extra
                    spare -= extra
                    if cap - extra > EPS_RATE:
                        next_round.append((r, cap - extra))
            if len(next_round) == len(pool):
                break  # nobody capped; share was fully dealt
            pool = next_round


class NoWorkaheadAllocator(BandwidthAllocator):
    """Pure continuous transmission: spare bandwidth is never used.

    Equivalent to every client having a zero staging buffer; the
    baseline the paper's staging curves start from.
    """

    name = "none"

    def _distribute_spare_into(self, candidates, spare):
        return  # leave the spare idle


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
    help="split spare bandwidth evenly among eligible streams "
         "(water-filling)",
)
ALLOCATORS.register(
    "none", NoWorkaheadAllocator,
    help="pure continuous transmission: spare bandwidth stays idle",
)
