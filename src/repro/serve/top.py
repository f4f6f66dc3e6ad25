"""``repro top`` — a curses-free terminal dashboard for the gateway.

Two sources, one renderer:

* **live** — poll a running gateway's ops endpoint
  (:func:`repro.serve.ops.ops_query`) once per interval and redraw;
* **trace** — replay the ``serve.stats`` samples of a recorded JSONL
  trace (``repro serve --trace-out``), rendering the run as it
  happened without any server around.

Both sources carry the same dict — the gateway's one telemetry snapshot
(:func:`repro.serve.telemetry.snapshot`) — so :func:`render_top` is a
pure string function of it: the tests feed it canned snapshots and
assert on the text.  No curses, no terminal capabilities: a frame is a
block of plain lines, optionally preceded by an ANSI home+clear when
stdout is a TTY.  Piping ``repro top`` into a file therefore yields a
readable log instead of escape soup.
"""

from __future__ import annotations

import asyncio
import sys
import time as _time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.obs.tracer import iter_jsonl
from repro.serve.ops import ops_query_sync

#: ANSI "cursor home + clear screen" — emitted only for TTYs.
_CLEAR = "\x1b[H\x1b[2J"

_WIDTH = 72


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def trace_samples(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All ``serve.stats`` samples of a recorded trace, in order.

    Raises:
        SystemExit: file unreadable or holding no samples — one
            actionable line instead of a traceback (CLI path).
    """
    try:
        records = list(iter_jsonl(path))
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path!r}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"trace {path!r} is not valid JSONL: {exc}")
    samples = [r for r in records if r.get("kind") == "serve.stats"]
    if not samples:
        raise SystemExit(
            f"trace {path!r} holds no serve.stats samples — record one "
            f"with `repro serve --trace-out` (one sample a wall second "
            f"while the gateway serves)"
        )
    return samples


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _rate(
    sample: Dict[str, Any], prev: Optional[Dict[str, Any]], key: str
) -> Optional[float]:
    """Per-wall-second delta of a monotone counter between samples."""
    if prev is None:
        return None
    dt = float(sample.get("uptime_s", 0.0)) - float(prev.get("uptime_s", 0.0))
    if dt <= 0:
        return None
    return (float(sample.get(key, 0.0)) - float(prev.get(key, 0.0))) / dt


def _fmt(value: Any, suffix: str = "", places: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{places}f}{suffix}"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(
    sample: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    source: str = "live",
) -> str:
    """Render one dashboard frame (a plain-text block, no trailing NL).

    Args:
        sample: a telemetry snapshot (an ``ops health`` reply body or
            a ``serve.stats`` trace record).
        prev: the previous sample, enabling per-second rates; rates
            render as ``-`` without it.
        source: provenance tag shown in the header (``live`` /
            ``trace``).
    """
    lines: List[str] = []
    status = sample.get("status", "?")
    lines.append(
        f"repro top [{source}]  status={status}  "
        f"vt={float(sample.get('virtual_now', 0.0)):.2f}s  "
        f"uptime={float(sample.get('uptime_s', 0.0)):.1f}s"
    )
    lines.append("-" * _WIDTH)

    admits = int(sample.get("admits", 0))
    rejects = int(sample.get("rejects", 0))
    active = int(sample.get("sessions_active", 0))
    lines.append(
        f"sessions  active {active:>5}   admitted {admits:>6} "
        f"({_fmt(_rate(sample, prev, 'admits'), '/s')})   "
        f"rejected {rejects:>6} ({_fmt(_rate(sample, prev, 'rejects'), '/s')})"
    )
    chunks = int(sample.get("chunks", 0))
    lines.append(
        f"pacing    chunks {chunks:>7} "
        f"({_fmt(_rate(sample, prev, 'chunks'), '/s')})   "
        f"bandwidth {_fmt(_rate(sample, prev, 'chunk_megabits'), ' Mb/s')}   "
        f"total {float(sample.get('chunk_megabits', 0.0)):.1f} Mb"
    )

    occupancy = float(sample.get("guard_occupancy", 0.0))
    lines.append(
        f"clock     vt lag {float(sample.get('vt_lag_s', 0.0)):6.2f}s   "
        f"guard [{_bar(occupancy)}] {occupancy:.2f}"
    )

    latency = sample.get("latency_ms") or {}
    lines.append(
        f"latency   p50 {_fmt(latency.get('p50'), ' ms')}   "
        f"p95 {_fmt(latency.get('p95'), ' ms')}   "
        f"p99 {_fmt(latency.get('p99'), ' ms')}"
    )

    cache = sample.get("cache") or {}
    if cache:
        hits = int(cache.get("hits", 0))
        misses = int(cache.get("misses", 0))
        lines.append(
            f"cache     hit rate {float(cache.get('hit_rate', 0.0)):.2%} "
            f"({hits}/{hits + misses})   "
            f"held {float(cache.get('bytes_held_mb', 0.0)):.0f} Mb   "
            f"chained {int(cache.get('chained_active', 0))} live "
            f"/ {int(cache.get('chained', 0))} total"
        )

    membership = sample.get("membership")
    if membership:
        summary = "  ".join(
            f"{state} {n}"
            for state, n in sorted(membership.get("counts", {}).items()) if n
        )
        lines.append(
            f"cluster   epoch {int(membership.get('epoch', 0)):>4}"
            + (f"   {summary}" if summary else "")
        )

    servers = sample.get("servers") or {}
    if servers:
        lines.append("-" * _WIDTH)
        lines.append(
            f"{'server':>8}  {'sessions':>8}  {'sched Mb/s':>10}  "
            f"{'bucket Mb':>10}  {'state':>9}"
        )
        for sid in sorted(servers, key=int):
            row = servers[sid]
            lines.append(
                f"{sid:>8}  {int(row.get('sessions', 0)):>8}  "
                f"{float(row.get('scheduled_mb_s', 0.0)):>10.2f}  "
                f"{float(row.get('bucket_mb', 0.0)):>10.3f}  "
                f"{row.get('state', ''):>9}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _emit(frame: str, out: TextIO) -> None:
    if out.isatty():
        out.write(_CLEAR)
    out.write(frame + "\n")
    if not out.isatty():
        out.write("\n")  # blank line separates frames in piped output
    out.flush()


def run_live(
    host: str,
    port: int,
    interval: float = 1.0,
    frames: Optional[int] = None,
    out: TextIO = sys.stdout,
) -> int:
    """Poll a live ops endpoint and redraw until Ctrl-C.

    Args:
        frames: stop after this many frames (``None`` = run forever);
            tests and CI use ``frames=1`` for a single snapshot.

    Returns:
        Number of frames rendered.
    """
    prev: Optional[Dict[str, Any]] = None
    rendered = 0
    try:
        while frames is None or rendered < frames:
            try:
                sample = ops_query_sync(host, port, "health")["health"]
            except asyncio.TimeoutError:  # an OSError from Python 3.11 on
                raise SystemExit(
                    f"ops endpoint {host}:{port} did not answer — is it a "
                    f"gateway's ops port?"
                )
            except (ConnectionError, OSError) as exc:
                raise SystemExit(
                    f"cannot reach ops endpoint {host}:{port} ({exc}) — "
                    f"is `repro serve` running with an ops port?"
                )
            _emit(render_top(sample, prev, source="live"), out)
            prev = sample
            rendered += 1
            if frames is None or rendered < frames:
                _time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return rendered


def run_trace(
    path: Union[str, Path],
    out: TextIO = sys.stdout,
    follow: bool = False,
    interval: float = 0.0,
) -> int:
    """Replay a recorded trace's ``serve.stats`` samples.

    Args:
        follow: render every sample (a flip-book of the run); off,
            render only the final frame — the run's end state.
        interval: wall seconds between frames when following (0 =
            as fast as the terminal drains).

    Returns:
        Number of frames rendered.
    """
    samples = trace_samples(path)
    if not follow:
        prev = samples[-2] if len(samples) > 1 else None
        _emit(render_top(samples[-1], prev, source="trace"), out)
        return 1
    prev = None
    for sample in samples:
        _emit(render_top(sample, prev, source="trace"), out)
        prev = sample
        if interval > 0:
            _time.sleep(interval)
    return len(samples)
