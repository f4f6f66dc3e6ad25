"""The Tracer: a bounded ring of typed records with JSONL export.

Design constraints:

* **bounded memory** — the ring is three parallel
  ``deque(maxlen=capacity)`` columns (times, kinds, field dicts); long
  runs keep the most recent window.  Per-kind *counts* are kept
  separately and are exact over the whole run even after the ring
  wraps.
* **cheap when off** — instrumentation sites hold an
  ``Optional[Tracer]`` and guard with one ``is None`` check; no record
  objects are built unless a tracer is attached.
* **cheap when on** — ``emit`` appends to the three columns and builds
  no object of its own: the keyword dict it is handed holds atomic
  values, which the cyclic collector does not track, so a full ring
  does not drive collections.  :class:`TraceRecord` objects are built
  only when the ring is read (:meth:`Tracer.records`,
  :meth:`Tracer.records_of`, :meth:`Tracer.export_jsonl`), and no
  formatting happens until export.

Example:
    >>> from repro.obs import TraceKind, Tracer
    >>> tr = Tracer(capacity=2)
    >>> tr.emit(TraceKind.REQUEST_ARRIVE, 1.0, request=1, video=3)
    >>> tr.emit(TraceKind.REQUEST_ADMIT, 1.0, request=1, video=3, server=0)
    >>> tr.emit(TraceKind.REQUEST_FINISH, 9.0, request=1, server=0)
    >>> len(tr)                   # ring holds the newest 2
    2
    >>> tr.counts[TraceKind.REQUEST_ARRIVE]   # counts stay exact
    1
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.obs.records import TraceKind, TraceRecord

#: Default ring capacity — enough for a scaled-down experiment's full
#: record stream while bounding a full-fidelity run to ~tens of MB.
DEFAULT_CAPACITY = 200_000


class Tracer:
    """Collects trace records into a bounded ring buffer, read back as
    :class:`TraceRecord` objects.

    ``emit`` appends to the three columns one after another, so read the
    ring between emissions: a reader that interrupts ``emit`` on a full
    ring (a plain signal handler) would pair neighbouring records.

    Args:
        capacity: maximum records retained (oldest evicted first).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        # The ring, one column per record attribute; the three always
        # hold the same records.
        self._times: deque = deque(maxlen=self.capacity)
        self._kinds: deque = deque(maxlen=self.capacity)
        self._fields: deque = deque(maxlen=self.capacity)
        #: Exact per-kind emission counts (never truncated by the ring).
        self.counts: Dict[TraceKind, int] = {}

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: TraceKind, time: float, **fields: Any) -> None:
        """Record one event at simulation *time*."""
        self._times.append(time)
        self._kinds.append(kind)
        self._fields.append(fields)
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Records currently in the ring (<= capacity)."""
        return len(self._times)

    @property
    def emitted(self) -> int:
        """Total records emitted over the tracer's lifetime."""
        return sum(self.counts.values())

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        return self.emitted - len(self._times)

    def records(self) -> Iterator[TraceRecord]:
        """Yield retained records oldest-first."""
        return map(TraceRecord, self._times, self._kinds, self._fields)

    def records_of(self, kind: TraceKind) -> List[TraceRecord]:
        """Retained records of one kind, oldest-first."""
        return [
            TraceRecord(time, k, fields)
            for time, k, fields in zip(self._times, self._kinds, self._fields)
            if k is kind
        ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(
        self,
        path: Union[str, Path],
        provenance: Optional[dict] = None,
        append: bool = False,
    ) -> int:
        """Write retained records to *path*, one JSON object per line.

        A leading ``run.meta`` line carries *provenance* (plus the
        tracer's own emitted/dropped accounting) when given.

        Returns:
            Number of lines written.
        """
        mode = "a" if append else "w"
        lines = 0
        with open(path, mode) as fh:
            if provenance is not None:
                meta = TraceRecord(
                    0.0,
                    TraceKind.RUN_META,
                    {
                        "provenance": provenance,
                        "records": len(self),
                        "emitted": self.emitted,
                        "dropped": self.dropped,
                    },
                )
                fh.write(meta.to_json() + "\n")
                lines += 1
            for record in self.records():
                fh.write(record.to_json() + "\n")
                lines += 1
        return lines

    def summary_table(self) -> str:
        """ASCII table of per-kind counts (exact, whole-run)."""
        if not self.counts:
            return "trace: no records"
        width = max(len(k.value) for k in self.counts)
        lines = [f"{'kind':<{width}}  count", f"{'-' * width}  -----"]
        for kind in sorted(self.counts, key=lambda k: k.value):
            lines.append(f"{kind.value:<{width}}  {self.counts[kind]}")
        lines.append(
            f"({self.emitted} emitted, {len(self)} retained, "
            f"{self.dropped} evicted by ring bound {self.capacity})"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tracer emitted={self.emitted} retained={len(self)} "
            f"capacity={self.capacity}>"
        )


def iter_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Parse a JSONL trace file back into dicts (skips blank lines)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
