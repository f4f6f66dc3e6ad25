"""Supervised gateway tasks: heartbeats, deadlines, restart-with-drain.

The gateway's loops (policy, per-server pacing, stats sampling) used to
run bare: an unexpected exception wrote a postmortem and killed the
task, and nothing noticed a loop that silently wedged.  Under a live
fault plane that is not enough — a chaos experiment *wants* to crash a
server task mid-stream and then assert that the runtime heals.  The
:class:`TaskSupervisor` provides that contract:

* every supervised loop runs as a **child task** under a wrapper that
  owns its lifecycle; loops call :meth:`TaskSupervisor.beat` once per
  iteration, and a watcher trips any beating loop whose heartbeat goes
  stale past the configured deadline;
* every **trip** — unhandled exception, stale heartbeat, or an
  injected crash from the chaos plane — dumps a flight-recorder
  postmortem stamped with the task name and restart count, and emits a
  ``task.trip`` trace record;
* a tripped task is **restarted** (after ``restart_delay``) within a
  bounded budget (``restart_limit``), *unless* the failure is an
  :class:`~repro.faults.invariants.InvariantViolation` — a policy-state
  violation is never papered over by a restart; it propagates out of
  :meth:`ClusterGateway.stop` exactly as before;
* :meth:`inject_crash` is the chaos plane's kill switch: it cancels
  the named loop's child task as if the "server" had died, and the
  supervisor walks the same trip/postmortem/restart path.

No supervised child can leak: a clean factory exit ends the wrapper, a
fatal trip re-raises through it, and cancelling the wrapper cancels the
child first.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro.obs.records import TraceKind
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import Tracer


class TaskKilled(RuntimeError):
    """A supervised task was killed on purpose (chaos or deadline)."""


class _Supervised:
    """Book-keeping for one supervised loop."""

    __slots__ = (
        "name", "where", "factory", "task", "child",
        "restarts", "trips", "last_beat", "kill_reason", "fatal",
    )

    def __init__(
        self,
        name: str,
        where: str,
        factory: Callable[[], Awaitable[None]],
    ) -> None:
        self.name = name
        self.where = where
        self.factory = factory
        self.task: Optional[asyncio.Task] = None
        self.child: Optional[asyncio.Task] = None
        self.restarts = 0
        self.trips = 0
        self.last_beat: Optional[float] = None
        self.kill_reason: Optional[str] = None
        self.fatal: Optional[str] = None

    def row(self, now: Optional[float]) -> Dict[str, Any]:
        alive = self.task is not None and not self.task.done()
        age = (
            round(now - self.last_beat, 3)
            if now is not None and self.last_beat is not None
            else None
        )
        return {
            "alive": alive,
            "restarts": self.restarts,
            "trips": self.trips,
            "fatal": self.fatal,
            "last_beat_age_s": age,
        }


class TaskSupervisor:
    """Run gateway loops under heartbeat + restart supervision.

    Args:
        should_stop: truthy once the owner is shutting down — a trip
            during shutdown is recorded but never restarted.
        recorder: supplier of the (possibly late-bound) flight
            recorder; every trip dumps a postmortem through it.
        tracer: optional tracer for ``task.trip`` / ``task.restart``
            records.
        now_virtual: supplier of the owner's virtual clock, used as
            the trace-record timestamp.
        heartbeat_timeout: wall seconds a *beating* loop may go silent
            before the watcher trips it; 0 disables the watcher.
        restart_limit: restarts granted per task before a trip becomes
            fatal.
        restart_delay: wall seconds between death and restart.
    """

    def __init__(
        self,
        should_stop: Callable[[], bool],
        recorder: Optional[Callable[[], Optional[FlightRecorder]]] = None,
        tracer: Optional[Tracer] = None,
        now_virtual: Optional[Callable[[], float]] = None,
        heartbeat_timeout: float = 0.0,
        restart_limit: int = 3,
        restart_delay: float = 0.05,
    ) -> None:
        self.should_stop = should_stop
        self._recorder = recorder or (lambda: None)
        self.tracer = tracer
        self._now_virtual = now_virtual or (lambda: 0.0)
        self.heartbeat_timeout = heartbeat_timeout
        self.restart_limit = restart_limit
        self.restart_delay = restart_delay
        self.trips = 0
        self.restarts = 0
        self.injected_kills = 0
        self.heartbeat_trips = 0
        self._entries: Dict[str, _Supervised] = {}
        self._watcher: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Spawning and heartbeats
    # ------------------------------------------------------------------
    def spawn(
        self,
        name: str,
        factory: Callable[[], Awaitable[None]],
        where: Optional[str] = None,
    ) -> asyncio.Task:
        """Start *factory* under supervision; returns the wrapper task.

        *factory* is re-invoked on every restart, so it must be a
        zero-argument callable producing a fresh coroutine (not a bare
        coroutine object).
        """
        if name in self._entries and not self._entries[name].task.done():
            raise RuntimeError(f"task {name!r} already supervised")
        entry = _Supervised(name, where or name, factory)
        loop = asyncio.get_running_loop()
        entry.task = loop.create_task(self._run(entry), name=name)
        self._entries[name] = entry
        if self.heartbeat_timeout > 0 and self._watcher is None:
            self._watcher = loop.create_task(
                self._watch(), name="serve.supervisor"
            )
        return entry.task

    def beat(self, name: str) -> None:
        """Record one iteration of the loop spawned as *name* (called
        from inside it).

        Also where a swallowed kill lands: ``asyncio.wait_for`` (the
        send deadline on Python 3.10) returns its inner result when
        that completes in the tick the cancellation arrives, so a loop
        killed mid-send may not see it.
        """
        entry = self._entries[name]
        if entry.kill_reason is not None:
            raise asyncio.CancelledError(entry.kill_reason)
        entry.last_beat = asyncio.get_running_loop().time()

    def inject_crash(self, name: str, reason: str = "injected") -> bool:
        """Kill the named loop's running child as a live fault.

        Returns True when a running child was cancelled; the wrapper
        then walks the ordinary trip path (postmortem, trace record,
        restart within budget).  False when the task is unknown or has
        no running child (already dead or between restarts).
        """
        entry = self._entries.get(name)
        if entry is None or entry.child is None or entry.child.done():
            return False
        entry.kill_reason = reason
        self.injected_kills += 1
        entry.child.cancel()
        return True

    # ------------------------------------------------------------------
    # The wrapper
    # ------------------------------------------------------------------
    async def _run(self, entry: _Supervised) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # A restart re-arms the deadline of a loop that beats; one
            # that never has (the stats sampler) stays unmonitored.
            if entry.last_beat is not None:
                entry.last_beat = loop.time()
            entry.child = loop.create_task(
                entry.factory(), name=f"{entry.name}.run"
            )
            try:
                await entry.child
                return  # clean exit (owner is stopping)
            except asyncio.CancelledError:
                # An external wrapper cancel can race an injected kill
                # (the watcher sets kill_reason in the same tick); the
                # wrapper's own pending cancellation must always win or
                # the owner's cancel would be swallowed by the trip
                # path and the task would restart instead of dying.
                cancelling = getattr(
                    asyncio.current_task(), "cancelling", None
                )
                if entry.kill_reason is None or (
                    cancelling is not None and cancelling() > 0
                ):
                    # The wrapper itself was cancelled: take the child
                    # down with us and propagate.
                    entry.kill_reason = None
                    entry.child.cancel()
                    with contextlib.suppress(BaseException):
                        await entry.child
                    raise
                reason, entry.kill_reason = entry.kill_reason, None
                exc: BaseException = TaskKilled(reason)
            except Exception as caught:  # noqa: BLE001 - supervision point
                exc = caught
            if not await self._trip(entry, exc):
                raise exc

    async def _trip(self, entry: _Supervised, exc: BaseException) -> bool:
        """Record one task death; True when the task will restart."""
        from repro.faults.invariants import InvariantViolation

        entry.trips += 1
        self.trips += 1
        violation = isinstance(exc, InvariantViolation)
        detail = f"{entry.where}: {type(exc).__name__}: {exc}"
        recorder = self._recorder()
        if recorder is not None:
            recorder.dump(
                "invariant_violation" if violation else "crash",
                f"{entry.where}: {exc}" if violation else detail,
                extra={
                    "task": entry.name,
                    "task_restarts": entry.restarts,
                    "task_trips": entry.trips,
                },
            )
        restart = (
            not violation
            and entry.restarts < self.restart_limit
            and not self.should_stop()
        )
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.TASK_TRIP, self._now_virtual(),
                task=entry.name, error=type(exc).__name__,
                detail=str(exc), restarting=restart,
            )
        if not restart:
            entry.fatal = detail
            return False
        entry.restarts += 1
        self.restarts += 1
        if self.tracer is not None:
            self.tracer.emit(
                TraceKind.TASK_RESTART, self._now_virtual(),
                task=entry.name, restarts=entry.restarts,
            )
        if self.restart_delay > 0:
            await asyncio.sleep(self.restart_delay)
        return True

    # ------------------------------------------------------------------
    # Heartbeat watcher
    # ------------------------------------------------------------------
    async def _watch(self) -> None:
        interval = max(0.02, self.heartbeat_timeout / 4.0)
        loop = asyncio.get_running_loop()
        while not self.should_stop():
            await asyncio.sleep(interval)
            now = loop.time()
            for entry in self._entries.values():
                if (
                    entry.last_beat is None
                    or entry.child is None
                    or entry.child.done()
                ):
                    continue
                if now - entry.last_beat > self.heartbeat_timeout:
                    self.heartbeat_trips += 1
                    self.inject_crash(
                        entry.name,
                        reason=(
                            f"heartbeat stale for "
                            f"{now - entry.last_beat:.3f}s "
                            f"(deadline {self.heartbeat_timeout}s)"
                        ),
                    )

    # ------------------------------------------------------------------
    # Lifecycle + reporting
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Stop the watcher (the owner awaits the wrapper tasks)."""
        if self._watcher is not None:
            self._watcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watcher
            self._watcher = None

    def tasks(self) -> List[asyncio.Task]:
        """The live wrapper tasks (what the owner must await)."""
        return [
            e.task for e in self._entries.values() if e.task is not None
        ]

    def report(self) -> Dict[str, Any]:
        """JSON-ready supervision summary (ops health / run summary)."""
        try:
            now: Optional[float] = asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - post-loop summary
            now = None
        return {
            "trips": self.trips,
            "restarts": self.restarts,
            "injected_kills": self.injected_kills,
            "heartbeat_trips": self.heartbeat_trips,
            "tasks": {
                name: entry.row(now)
                for name, entry in sorted(self._entries.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TaskSupervisor tasks={len(self._entries)} "
            f"trips={self.trips} restarts={self.restarts}>"
        )
