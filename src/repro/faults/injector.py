"""Expanding a :class:`FaultPlan` into engine-scheduled chaos.

Every fault process draws from its own named RNG substream
(``fault.crash.<sid>``, ``fault.link.<sid>``, ``fault.replica``), so

* identical seeds give byte-identical fault schedules regardless of how
  the rest of the simulation interleaves its draws, and
* adding a fault class to a plan does not perturb the others.

Crash and link processes are alternating renewals: the next failure is
drawn from the moment of the previous *repair*, giving the standard
``mtbf/(mtbf+mttr)`` steady-state availability per server.  All repair
and relocation mechanics are delegated to
:class:`repro.core.failover.FailoverManager` — the injector only decides
*when* and *where*, never *how*.

A member that has departed the cluster (:mod:`repro.core.elastic`) is
out of reach: it draws no fault, counts none, and a repair that comes
due after its departure does not bring it back.
"""

from __future__ import annotations

from typing import List

from repro.cluster.membership import ServerLifecycle

#: A brownout keeps a fraction of the link drawn uniformly from here.
LINK_FACTOR_RANGE = (0.3, 0.9)


class FaultInjector:
    """Drive the ``faults`` plan of a :class:`~repro.simulation.Simulation`
    against its cluster: crash / degrade / replica-loss mechanics go
    through the run's failover manager, draws come from its substreams,
    counts go to its metrics, and departed members (its membership)
    are out of reach.

    Construction starts every configured fault process; the processes
    then self-perpetuate on the engine agenda.  Events scheduled beyond
    the run's ``run_until`` horizon simply never fire.
    """

    def __init__(self, sim) -> None:
        self.engine = sim.engine
        self.failover = sim.failover
        self.streams = sim.streams
        self.plan = sim.config.faults
        self.catalog = sim.catalog
        self.metrics = sim.metrics
        self.membership = sim.membership
        self._started = False
        self.start()

    # ------------------------------------------------------------------
    def _departed(self, sid: int) -> bool:
        return self.membership.states.get(sid) is ServerLifecycle.DEPARTED

    def _eligible(self) -> List[int]:
        """Sorted ids of the servers faults can reach (order matters for
        determinism)."""
        return [
            sid for sid in sorted(self.failover.servers)
            if not self._departed(sid)
        ]

    def start(self) -> None:
        """Schedule the first event of every configured fault process."""
        if self._started:
            raise RuntimeError("FaultInjector.start() is single-use")
        self._started = True
        plan = self.plan
        t0 = max(plan.start, self.engine.now)
        if plan.crash is not None:
            for sid in self._eligible():
                rng = self.streams.get(f"fault.crash.{sid}")
                self._schedule_crash(
                    sid, t0 + rng.exponential(plan.crash.mtbf)
                )
        if plan.link is not None:
            for sid in self._eligible():
                rng = self.streams.get(f"fault.link.{sid}")
                self._schedule_degrade(
                    sid, t0 + rng.exponential(plan.link.mtbf)
                )
        if plan.replica is not None:
            rng = self.streams.get("fault.replica")
            self._schedule_replica_loss(
                t0 + rng.exponential(plan.replica.mean_interval)
            )

    # ------------------------------------------------------------------
    # Crash / repair (alternating renewal, optional correlation)
    # ------------------------------------------------------------------
    def _schedule_crash(self, sid: int, when: float) -> None:
        self.engine.schedule_at(
            when, lambda: self._crash(sid), kind=f"fault.crash:srv{sid}"
        )

    def _crash(self, sid: int) -> None:
        if self._departed(sid):
            return  # its process ends with its membership
        crash = self.plan.crash
        rng = self.streams.get(f"fault.crash.{sid}")
        victims = [sid]
        if crash.correlation > 0.0:
            # Correlated blast radius: every *other* eligible server
            # joins independently with probability `correlation`.  The
            # coin flips come from the primary's stream in sorted-victim
            # order, so the draw sequence is a pure function of the seed.
            for other in self._eligible():
                if other != sid and rng.random() < crash.correlation:
                    victims.append(other)
        repair_time = 0.0
        for victim in victims:
            # fail_server is idempotent — a victim already down (its own
            # process fired, or an earlier correlated crash) is a no-op.
            self.failover.fail_server(victim)
            self.metrics.record_fault("crash")
            victim_repair = self.engine.now + rng.exponential(crash.mttr)
            self.engine.schedule_at(
                victim_repair,
                lambda v=victim: self._repair(v),
                kind=f"fault.repair:srv{victim}",
            )
            if victim == sid:
                repair_time = victim_repair
        # Next crash of *this* server's process, measured from its own
        # repair (a down server cannot fail again).
        self._schedule_crash(sid, repair_time + rng.exponential(crash.mtbf))

    def _repair(self, sid: int) -> None:
        if not self._departed(sid):
            self.failover.restore_server(sid)

    # ------------------------------------------------------------------
    # Partial link degradation
    # ------------------------------------------------------------------
    def _schedule_degrade(self, sid: int, when: float) -> None:
        self.engine.schedule_at(
            when, lambda: self._degrade(sid), kind=f"fault.degrade:srv{sid}"
        )

    def _degrade(self, sid: int) -> None:
        if self._departed(sid):
            return
        link = self.plan.link
        rng = self.streams.get(f"fault.link.{sid}")
        factor = float(rng.uniform(*LINK_FACTOR_RANGE))
        self.failover.degrade_server(sid, factor)
        self.metrics.record_fault("degrade")
        restore_time = self.engine.now + rng.exponential(link.mttr)
        self.engine.schedule_at(
            restore_time,
            lambda: self.failover.restore_link(sid),
            kind=f"fault.link_restore:srv{sid}",
        )
        self._schedule_degrade(sid, restore_time + rng.exponential(link.mtbf))

    # ------------------------------------------------------------------
    # Replica loss (cluster-wide Poisson process)
    # ------------------------------------------------------------------
    def _schedule_replica_loss(self, when: float) -> None:
        self.engine.schedule_at(
            when, self._lose_replica, kind="fault.replica_loss"
        )

    def _lose_replica(self) -> None:
        plan = self.plan.replica
        rng = self.streams.get("fault.replica")
        eligible = self._eligible()
        if eligible:
            sid = eligible[int(rng.integers(len(eligible)))]
            holdings = sorted(self.failover.servers[sid].holdings)
            if holdings:
                vid = holdings[int(rng.integers(len(holdings)))]
                self.failover.lose_replica(sid, self.catalog[vid])
                self.metrics.record_fault("replica_loss")
        self._schedule_replica_loss(
            self.engine.now + rng.exponential(plan.mean_interval)
        )
