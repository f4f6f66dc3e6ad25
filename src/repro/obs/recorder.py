"""The flight recorder: dump the recent trace window on disaster.

A long-lived gateway cannot keep (or ship) its full trace, but the
moments *before* a crash are exactly the ones worth keeping.  The
:class:`FlightRecorder` leans on the :class:`~repro.obs.tracer.Tracer`'s
bounded ring — the newest records are already retained in memory — and
adds the three trigger paths a serving process needs:

* **operator-requested** — ``SIGUSR2`` (installed via
  :meth:`install_signal_handler`) dumps without disturbing the run, so
  a live incident can be snapshotted mid-flight;
* **invariant violation** and **unhandled crash** — the gateway's task
  supervisor (:mod:`repro.serve.supervisor`) dumps when a supervised
  task dies, naming which of the two killed it.

A dump is one JSONL file: a leading ``postmortem.meta`` record carrying
provenance (reason, trigger detail, pid, UTC wall time, dump sequence
number, ring accounting, plus whatever ``state`` supplier the owner
registered — typically a metrics snapshot), followed by the retained
trace records oldest-first.  Repeated dumps overwrite the same path
with the newest window (``dump_seq`` disambiguates), keeping the
artifact path predictable for CI collection.
"""

from __future__ import annotations

import json
import os
import signal
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.obs.records import TraceKind, TraceRecord
from repro.obs.tracer import Tracer


class FlightRecorder:
    """Dump a tracer's retained ring to a provenance-stamped postmortem.

    Args:
        tracer: the ring to dump (shared with normal tracing — one
            tracer serves live export, spans and the recorder).
        path: postmortem file; each dump rewrites it with the newest
            window.
        provenance: run provenance embedded in the meta record
            (seed/config hash/mode — see :func:`repro.obs.run_provenance`).
        state: optional supplier of extra JSON-ready state captured at
            dump time (e.g. ``registry.snapshot``); failures inside the
            supplier are recorded, never raised — a recorder must not
            turn a crash into a different crash.
    """

    def __init__(
        self,
        tracer: Tracer,
        path: Union[str, Path],
        provenance: Optional[dict] = None,
        state: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.path = Path(path)
        self.provenance = provenance
        self.state = state
        self.dumps = 0
        self._installed: Optional[tuple] = None

    # ------------------------------------------------------------------
    # The dump itself
    # ------------------------------------------------------------------
    def dump(
        self,
        reason: str,
        detail: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write the postmortem file now; returns its path.

        Safe to call from a signal handler (pure synchronous I/O) and
        from ``except`` blocks; any failure of the optional *state*
        supplier is embedded as ``state_error`` instead of raising.
        *extra* (JSON-ready) is merged into the meta record — the task
        supervisor stamps each trip's task name and restart count here.
        """
        self.dumps += 1
        state: Any = None
        state_error: Optional[str] = None
        if self.state is not None:
            try:
                state = self.state()
            except Exception as exc:  # noqa: BLE001 - must not re-crash
                state_error = f"{type(exc).__name__}: {exc}"
        meta = TraceRecord(
            0.0,
            TraceKind.POSTMORTEM_META,
            {
                "reason": reason,
                "detail": detail,
                "pid": os.getpid(),
                "wall_utc": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "dump_seq": self.dumps,
                "records": len(self.tracer),
                "emitted": self.tracer.emitted,
                "dropped": self.tracer.dropped,
                "provenance": self.provenance,
                "state": state,
                "state_error": state_error,
                **(extra or {}),
            },
        )
        with open(self.path, "w") as fh:
            fh.write(meta.to_json() + "\n")
            for record in self.tracer.records():
                fh.write(record.to_json() + "\n")
        return self.path

    # ------------------------------------------------------------------
    # Trigger paths
    # ------------------------------------------------------------------
    def install_signal_handler(
        self,
        signum: Optional[int] = None,
        loop: Optional[Any] = None,
    ) -> bool:
        """Dump on *signum* (default ``SIGUSR2``); True when installed.

        With an asyncio *loop* the handler runs as a loop callback
        (``loop.add_signal_handler``); otherwise a plain
        :func:`signal.signal` handler is used, which can land inside
        :meth:`Tracer.emit` (see :class:`Tracer`), so pass the loop that
        emits when there is one.  Returns False on platforms without the
        signal (Windows) instead of raising.
        """
        if signum is None:
            signum = getattr(signal, "SIGUSR2", None)
            if signum is None:  # pragma: no cover - non-POSIX
                return False
        if loop is not None:
            try:
                loop.add_signal_handler(
                    signum, self.dump, "signal", signal.Signals(signum).name
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                return False
            self._installed = ("loop", loop, signum)
            return True
        previous = signal.signal(
            signum, lambda s, frame: self.dump("signal", signal.Signals(s).name)
        )
        self._installed = ("signal", previous, signum)
        return True

    def uninstall_signal_handler(self) -> None:
        """Undo :meth:`install_signal_handler` (idempotent)."""
        if self._installed is None:
            return
        kind, token, signum = self._installed
        self._installed = None
        if kind == "loop":
            token.remove_signal_handler(signum)
        else:
            signal.signal(signum, token)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FlightRecorder path={str(self.path)!r} dumps={self.dumps}>"


def read_postmortem(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse a postmortem file into ``{"meta": ..., "records": [...]}``.

    Raises ``ValueError`` (one line, naming the path) when the file is
    not a postmortem dump.
    """
    meta: Optional[dict] = None
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if meta is None:
                if entry.get("kind") != TraceKind.POSTMORTEM_META.value:
                    raise ValueError(
                        f"{path}: not a postmortem dump (first record is "
                        f"{entry.get('kind')!r}, expected "
                        f"{TraceKind.POSTMORTEM_META.value!r})"
                    )
                meta = entry
            else:
                records.append(entry)
    if meta is None:
        raise ValueError(f"{path}: empty postmortem file")
    return {"meta": meta, "records": records}
