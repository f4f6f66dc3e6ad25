"""Dynamic Request Migration (DRM): the Section 3.1 admission fallback.

When every replica holder of a newly requested video is saturated, a
holder may evict one of its *active* streams to another server that
holds that stream's video, freeing a minimum-flow slot for the
newcomer.  Two knobs bound the machinery (and the paper's result is
that the smallest settings already capture almost all the benefit):

* **migration chain length** — how many streams may be displaced to
  admit one arrival ("kept at one throughout our experiments");
* **hops per request** — how many times any single stream may be moved
  over its lifetime (1 is "almost as good" as unlimited).

A move is instantaneous: the stream leaves its source and keeps
transmitting at its target at the same instant, so it needs no staging
buffer to cover a gap.

Under overload almost every search fails, and mostly for the reason
the previous one did.  So a holder whose walk failed keeps a
**certificate** (:attr:`DataServer.drm_certificate`) of what that walk
read, and a later search — admission, failover rescue or elastic
drain — skips the holder while the certificate holds.  A failure can
only turn into a chain through a new stream on a server the walk
entered (:attr:`DataServer.attaches`: migrations and failover moves
attach too, and ``hops`` only changes across one), a new open target,
a member appearing or changing ``up`` / ``accepting`` or a new replica
(:attr:`PlacementMap.version`).  Everything else — finishes, failures,
link degradation — only removes streams or closes targets.  A
certificate is stored only after a walk that met some open target.  A
walk that met none stores nothing, yet it costs more than one slot
probe per server: pass 1 still reads every stream on the holder, each
finding an empty target set, and the next search repeats that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.request import Request
from repro.cluster.server import DataServer
from repro.obs.records import TraceKind
from repro.obs.tracer import Tracer
from repro.placement.base import PlacementMap
from repro.serialize import Config


@dataclass(frozen=True)
class MigrationPolicy(Config):
    """DRM configuration.

    Attributes:
        enabled: master switch (policies P1/P2/P5/P6 run disabled).
        max_chain_length: streams displaced per admission (paper: 1).
        max_hops_per_request: lifetime migration bound per stream;
            ``None`` means unlimited ("unrestricted hops").
    """

    enabled: bool = False
    max_chain_length: int = 1
    max_hops_per_request: Optional[int] = 1

    def __post_init__(self) -> None:
        if self.max_chain_length < 1:
            raise ValueError(
                f"max_chain_length must be >= 1, got {self.max_chain_length}"
            )
        if (
            self.max_hops_per_request is not None
            and self.max_hops_per_request < 0
        ):
            raise ValueError(
                f"max_hops_per_request must be >= 0 or None, got "
                f"{self.max_hops_per_request}"
            )

    @classmethod
    def disabled(cls) -> "MigrationPolicy":
        """No migration (the paper's baseline)."""
        return cls(enabled=False)

    @classmethod
    def paper_default(cls) -> "MigrationPolicy":
        """Chain length 1, one hop per request — the paper's headline
        configuration."""
        return cls(enabled=True, max_chain_length=1, max_hops_per_request=1)

    @classmethod
    def unlimited_hops(cls) -> "MigrationPolicy":
        """Chain length 1 but streams may be moved any number of times."""
        return cls(enabled=True, max_chain_length=1, max_hops_per_request=None)


#: Chain bounds for moves made to *rescue* streams rather than admit one
#: (failover orphans, elastic drains): chain length 1 and unlimited hops,
#: so no earlier move keeps a stream from being rescued.
RESCUE_POLICY = MigrationPolicy.unlimited_hops()


@dataclass(frozen=True)
class MigrationStep:
    """One stream displacement: move *request* from *source* to *target*.

    Steps in a chain are ordered ready-to-execute: each step's target
    has a free slot by the time the step runs.
    """

    request: Request
    source_id: int
    target_id: int


def _eligible(request: Request, policy: MigrationPolicy) -> bool:
    """May this stream be displaced, by its hop budget?"""
    return (
        policy.max_hops_per_request is None
        or request.hops < policy.max_hops_per_request
    )


#: Slot predicate: can *server* take one more stream played at
#: *view_bandwidth* right now?  Every caller uses the default, the
#: minimum-flow test; the parameter is the seam the differential oracle
#: in tests substitutes a stricter one through.  Contract: pure, and the
#: same answer for the same ``(server, view_bandwidth)`` for one search —
#: the search asks once per pair and shares the answer between streams.
SlotTest = Callable[[DataServer, float], bool]


def _open_targets(
    servers: Dict[int, DataServer], view_bandwidth: float, slot_test: SlotTest
) -> Set[int]:
    """The up members of *servers* with a slot at *view_bandwidth*."""
    return {
        tid for tid, t in servers.items()
        if t.up and slot_test(t, view_bandwidth)
    }


def _members(servers: Dict[int, DataServer]) -> Tuple[tuple, ...]:
    return tuple([(sid, s.up, s.accepting) for sid, s in servers.items()])


class _Certificate:
    """What a failed walk from one holder read.

    It holds while the search asks the same question of a cluster that
    can only have lost chains since: same policy, members (``(id, up,
    accepting)`` of every server in the ``servers`` argument) and
    placement version; no attach on a server the walk entered; and, per
    view bandwidth the walk looked up, the open targets now are a
    *subset* of the open targets then.  The subset test lets it outlive
    a finish that opens a server the next arrival fills again.  The slot
    test reaches a walk only through those sets, which are rebuilt with
    the caller's, so it need not be the same one.
    """

    __slots__ = (
        "policy", "placement", "version", "members", "entered", "open_of",
    )

    def __init__(
        self, policy: MigrationPolicy, placement: PlacementMap,
        members: Tuple[tuple, ...], entered: Set[int],
        open_of: Dict[float, Set[int]], servers: Dict[int, DataServer],
    ) -> None:
        self.policy = policy
        self.placement = placement
        self.version = placement.version
        self.members = members
        self.entered = tuple([(sid, servers[sid].attaches) for sid in entered])
        # The search's own dict, shared: nothing writes to it once the
        # search returns, and what a later walk of the same search adds
        # is as true as the rest.
        self.open_of = open_of

    def holds(
        self, servers: Dict[int, DataServer], placement: PlacementMap,
        policy: MigrationPolicy, slot_test: SlotTest,
        members: Tuple[tuple, ...], open_of: Dict[float, Set[int]],
    ) -> bool:
        """Would the walk fail again?  Open-target sets it has to build
        go into *open_of*, the current search's, for its walks to use."""
        if not (
            self.placement is placement
            and self.version == placement.version
            and (self.policy is policy or self.policy == policy)
            and self.members == members
        ):
            return False
        for sid, attaches in self.entered:
            if servers[sid].attaches != attaches:
                return False
        for b_view, was_open in self.open_of.items():
            open_ids = open_of.get(b_view)
            if open_ids is None:
                open_ids = open_of[b_view] = _open_targets(
                    servers, b_view, slot_test
                )
            if not open_ids <= was_open:
                return False
        return True


def find_migration_chain(
    video_id: int,
    servers: Dict[int, DataServer],
    placement: PlacementMap,
    policy: MigrationPolicy,
    slot_test: SlotTest = DataServer.has_slot,
) -> Optional[List[MigrationStep]]:
    """Search for a displacement chain that frees a slot on some holder
    of *video_id*.

    Performs a depth-limited DFS over servers: to free a slot on server
    ``S``, pick an eligible stream on ``S`` whose video has a replica on
    another server ``T``; if ``T`` has a slot the chain ends, otherwise
    recursively free a slot on ``T`` (up to ``max_chain_length`` moves).

    Iteration order is deterministic (server id, then request id), so
    runs are reproducible.  The cluster is frozen until
    :func:`execute_chain`, so what one path learns about a server is
    shared with every later path of the same search (:func:`_free_slot`).
    A holder whose certificate from an earlier failed walk still holds
    is skipped (module docstring): its walk would fail again.

    Returns:
        Steps in execution order (deepest first), or None.  The *last*
        step's ``source_id`` is the holder of *video_id* that ends up
        with the free slot.
    """
    # Non-accepting holders (joining/draining members) are skipped:
    # freeing a slot there would not help the newcomer, which the
    # membership gate refuses regardless.
    entry_holders = [
        holder
        for sid in placement.holders(video_id)
        if (holder := servers.get(sid)) is not None
        and holder.up and holder.accepting
    ]
    # Deterministic preference: fewest active streams first (they are
    # typically all full here, so this mostly falls back to id order).
    entry_holders.sort(key=lambda s: (s.active_count, s.server_id))
    movable_of: Dict[int, List[Request]] = {}
    no_direct: Set[int] = set()
    open_of: Dict[float, Set[int]] = {}
    members = None  # read once per search, and only if a certificate asks
    for holder in entry_holders:
        cert = holder.drm_certificate
        if cert is not None:
            if members is None:
                members = _members(servers)
            if cert.holds(
                servers, placement, policy, slot_test, members, open_of
            ):
                continue
        entered: Set[int] = set()
        chain = _free_slot(
            holder, servers, placement, policy, {holder.server_id},
            slot_test, movable_of, no_direct, open_of, entered,
        )
        if chain is not None:
            return chain
        cert = None
        if any(open_of.values()):
            if members is None:
                members = _members(servers)
            cert = _Certificate(
                policy, placement, members, entered, open_of, servers
            )
        holder.drm_certificate = cert
    return None


def _free_slot(
    server: DataServer, servers: Dict[int, DataServer],
    placement: PlacementMap, policy: MigrationPolicy,
    visited: Set[int], slot_test: SlotTest,
    movable_of: Dict[int, List[Request]], no_direct: Set[int],
    open_of: Dict[float, Set[int]], entered: Set[int],
) -> Optional[List[MigrationStep]]:
    """Free a slot on *server*; each server in *visited* costs one move.

    *open_of* (view bandwidth -> the up members of *servers* with a slot
    at it), *movable_of* (server id -> eligible streams by request id)
    and *no_direct* (servers whose eligible streams have no open target
    anywhere) live for one search: a revisit skips what they answer.
    *entered* collects the servers one holder's walk depends on.
    """
    sid = server.server_id
    entered.add(sid)
    # Pass 1: a direct move (keeps chains as short as possible); only
    # streams with an open target are ordered and tested for eligibility.
    # A larger `visited` only removes targets, so a server with no open
    # target at all — on the path or off it — never gets one later.
    if sid not in no_direct:
        direct = []
        for r in server.iter_active():
            b_view = r.view_bandwidth
            open_ids = open_of.get(b_view)
            if open_ids is None:
                open_ids = open_of[b_view] = _open_targets(
                    servers, b_view, slot_test
                )
            if open_ids and not open_ids.isdisjoint(
                placement.holders(r.video.video_id)
            ):
                direct.append((r.request_id, r))
        open_on_path = False
        for _, r in sorted(direct):
            if _eligible(r, policy):
                open_ids = open_of[r.view_bandwidth]
                for tid in placement.holders(r.video.video_id):
                    if tid in open_ids and tid != sid:
                        if tid not in visited:
                            return [MigrationStep(r, sid, tid)]
                        open_on_path = True
        if not open_on_path:
            no_direct.add(sid)
    # Pass 2: recurse — displace a stream from a full target first.  A
    # second stream pointing at the same target would ask the identical
    # question, and the first asker has the lowest request id.
    if len(visited) < policy.max_chain_length:
        movable = movable_of.get(sid)
        if movable is None:
            movable = movable_of[sid] = [
                r for r in server.iter_active() if _eligible(r, policy)
            ]
            movable.sort(key=lambda r: r.request_id)
        tried = set(visited)  # on the path, or already asked from here
        for r in movable:
            for tid in placement.holders(r.video.video_id):
                if tid in tried:
                    continue
                tried.add(tid)
                target = servers.get(tid)
                if target is None or not (target.up and target.accepting):
                    continue
                sub = _free_slot(
                    target, servers, placement, policy, visited | {tid},
                    slot_test, movable_of, no_direct, open_of, entered,
                )
                if sub is not None:
                    return sub + [MigrationStep(r, sid, tid)]
    return None


def execute_chain(
    chain: Sequence[MigrationStep],
    managers: Dict[int, "TransmissionManager"],  # noqa: F821 - hint only
    now: float,
    tracer: Optional[Tracer] = None,
    cause: str = "admission",
) -> None:
    """Carry out a chain: each stream leaves its source (syncing its
    transfer accounting there) and joins its target.  With a *tracer*,
    each displacement emits a ``request.migrate`` record tagged with its
    *cause*."""
    for step in chain:
        request = step.request
        managers[step.source_id].migrate_out(request, now)
        request.hops += 1
        managers[step.target_id].migrate_in(request, now)
        if tracer is not None:
            tracer.emit(
                TraceKind.REQUEST_MIGRATE, now,
                request=request.request_id,
                source=step.source_id, target=step.target_id, cause=cause,
            )
