"""Cluster membership: the lifecycle of every server, epoch-stamped.

The static model froze the server set at build time; elastic scaling
makes membership a runtime variable.  Every server moves through::

    joining -> warming -> active -> draining -> departed

* **joining** — the node exists and is being calibrated/wired; it
  accepts nothing.
* **warming** — replicas are being copied onto it (bounded by its
  measured ``disk_throughput``); still not accepting.
* **active** — full member: admission, DRM and failover may use it.
* **draining** — scheduled to leave: no new streams, existing streams
  are migrated off by DRM.
* **departed** — empty and out of placement; its engine-side manager is
  deactivated and its serve-layer task retires.  Terminal.

Every transition bumps the cluster-wide **epoch** — the serve layer
reconciles its supervised per-server tasks against the epoch, and the
ops endpoint / ``repro top`` display it.  Transitions are virtual-time
events, so membership history is part of the deterministic replay.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple

#: Transitions a server may take (initial registration is not a
#: transition; seed servers start ACTIVE at epoch 0).
_ALLOWED: Dict["ServerLifecycle", Tuple["ServerLifecycle", ...]] = {}


class ServerLifecycle(str, enum.Enum):
    """Where one server stands in the membership lifecycle."""

    JOINING = "joining"
    WARMING = "warming"
    ACTIVE = "active"
    DRAINING = "draining"
    DEPARTED = "departed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_ALLOWED.update(
    {
        ServerLifecycle.JOINING: (
            ServerLifecycle.WARMING,
            ServerLifecycle.ACTIVE,
        ),
        ServerLifecycle.WARMING: (ServerLifecycle.ACTIVE,),
        ServerLifecycle.ACTIVE: (ServerLifecycle.DRAINING,),
        ServerLifecycle.DRAINING: (ServerLifecycle.DEPARTED,),
        ServerLifecycle.DEPARTED: (),
    }
)


class ClusterMembership:
    """Lifecycle state per server id plus the cluster epoch.

    The epoch starts at 0 (the seed membership) and increments once per
    lifecycle transition.  Nothing is notified: the serve layer's
    gateway polls :attr:`epoch` after every policy advance and
    spawns/retires supervised server tasks when it has moved.
    """

    def __init__(self) -> None:
        self.states: Dict[int, ServerLifecycle] = {}
        self.epoch = 0

    # ------------------------------------------------------------------
    def register(
        self,
        server_id: int,
        state: ServerLifecycle = ServerLifecycle.ACTIVE,
    ) -> None:
        """Add a server to the membership map.

        Seed servers register ACTIVE without bumping the epoch (they
        *are* epoch 0); mid-run joiners register JOINING, which counts
        as a transition.
        """
        if server_id in self.states:
            raise ValueError(f"server {server_id} already a member")
        self.states[server_id] = state
        if state is not ServerLifecycle.ACTIVE:
            self.epoch += 1

    def transition(self, server_id: int, state: ServerLifecycle) -> None:
        """Move *server_id* to *state*, enforcing the lifecycle order."""
        current = self.states.get(server_id)
        if current is None:
            raise KeyError(f"server {server_id} is not a member")
        if state not in _ALLOWED[current]:
            raise ValueError(
                f"server {server_id}: illegal transition "
                f"{current.value} -> {state.value}"
            )
        self.states[server_id] = state
        self.epoch += 1

    # ------------------------------------------------------------------
    def state(self, server_id: int) -> ServerLifecycle:
        return self.states[server_id]

    def members(self, *states: ServerLifecycle) -> List[int]:
        """Server ids currently in any of *states*, sorted for
        determinism."""
        return sorted(
            sid for sid, st in self.states.items() if st in states
        )

    def counts(self) -> Dict[str, int]:
        """How many servers sit in each lifecycle state (JSON-ready)."""
        out = {state.value: 0 for state in ServerLifecycle}
        for st in self.states.values():
            out[st.value] += 1
        return out

    def to_dict(self) -> Dict:
        """JSON-ready snapshot for ops/health and run summaries."""
        return {
            "epoch": self.epoch,
            "servers": {
                str(sid): st.value for sid, st in sorted(self.states.items())
            },
            "counts": self.counts(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClusterMembership epoch={self.epoch} {self.counts()}>"
