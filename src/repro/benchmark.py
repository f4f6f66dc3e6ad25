"""Performance benchmark harness (``repro-vod bench``).

Two measurements, written to ``BENCH_perf.json`` (schema
``repro-bench-perf/3``) so successive PRs accumulate a perf trajectory:

* **engine microbenchmark** — raw events/sec of the DES core on a
  self-perpetuating event chain interleaved with cancelled handles
  (exercising both the fire path and the lazy-cancellation skip path);
* **sweep benchmark** — wall time of a Figure-4-shaped
  (θ × variant × trial) sweep executed serially (``REPRO_WORKERS=1``)
  versus through the chunked parallel executor on a pre-warmed
  persistent pool, with the bit-identity of the two results asserted
  (the determinism gate).  On hosts with fewer than two usable CPUs
  the timing comparison would only measure process-spawn overhead, so
  it is skipped (``"skipped": "cpu_count<2"``) — the 2-worker identity
  leg still runs so the determinism gate never goes dark.

Timing numbers are machine-dependent — compare them only against runs
on the same hardware (``cpu_count`` — logical CPUs — and
``cpu_usable`` — the affinity mask, what a cgroup-limited CI runner
actually gets — are recorded for that reason; ``repro bench
--compare`` automates the comparison).  The identity flag, in
contrast, must always be true.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.system import SMALL_SYSTEM
from repro.experiments import fig4_drm
from repro.experiments.base import THETA_GRID_COARSE, warm_pool
from repro.obs.provenance import run_provenance
from repro.sim.engine import Engine

#: Default output path (repo root when invoked from a checkout).
DEFAULT_OUT = "BENCH_perf.json"

#: Current report schema.  /2 added ``cpu_usable`` and the sweep skip
#: field; /3 dropped the ``scheduler`` section and the engine's
#: ``scheduler`` field (there is one agenda).
SCHEMA = "repro-bench-perf/3"

#: Events per engine-microbenchmark repetition.
ENGINE_EVENTS = 200_000

#: Fidelity of the sweep benchmark (matches REPRO_BENCH_SCALE's
#: default, so the sweep leg mirrors the committed bench artifacts).
SWEEP_SCALE = 0.003
QUICK_SWEEP_SCALE = 0.001

#: Engine events/sec drop (vs a baseline report) that ``--compare``
#: treats as a regression.
REGRESSION_THRESHOLD = 0.20


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count`` reports the host's logical CPUs even when a
    cgroup / affinity mask (CI runners, containers) restricts the
    process to fewer — which made single-core "parallel" benches look
    like regressions.  Prefers the affinity mask where the platform
    exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


@contextlib.contextmanager
def _workers_env(value: Optional[int]):
    """Temporarily pin (or clear) ``REPRO_WORKERS``."""
    saved = os.environ.get("REPRO_WORKERS")
    if value is None:
        os.environ.pop("REPRO_WORKERS", None)
    else:
        os.environ["REPRO_WORKERS"] = str(value)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = saved


def engine_benchmark(
    n_events: int = ENGINE_EVENTS, repeats: int = 3
) -> Dict[str, object]:
    """Measure raw engine throughput (best of *repeats*).

    The workload is a single self-rescheduling chain with one cancelled
    handle per ten live events, so the measured loop covers scheduling,
    agenda maintenance, firing and the lazy-cancellation skip — the
    same mix a simulation produces, minus model arithmetic.

    Args:
        n_events: live events per repetition.
        repeats: measurement repetitions (best is reported).
    """
    best = 0.0
    for _ in range(repeats):
        engine = Engine()
        remaining = [n_events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                engine.schedule(1.0, tick)
                if remaining[0] % 10 == 0:
                    engine.schedule(0.5, tick).cancel()

        engine.schedule(1.0, tick)
        t0 = perf_counter()
        engine.run_until(float(n_events + 1))
        elapsed = perf_counter() - t0
        best = max(best, n_events / elapsed)
    return {
        "events": n_events,
        "repeats": repeats,
        "events_per_sec": round(best, 1),
    }


def sweep_benchmark(
    quick: bool = False,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Time a fig4-shaped sweep serially vs through the parallel
    executor and assert the two results are bit-identical."""
    if quick:
        system = SMALL_SYSTEM.scaled(n_videos=60, name="bench-tiny")
        theta_values: List[float] = [-0.5, 0.5]
        scale = QUICK_SWEEP_SCALE
    else:
        system = SMALL_SYSTEM
        theta_values = list(THETA_GRID_COARSE)
        scale = SWEEP_SCALE

    def leg(workers: Optional[int]):
        with _workers_env(workers):
            t0 = perf_counter()
            result = fig4_drm.run_fig4(
                system=system, theta_values=theta_values,
                scale=scale, seed=seed,
            )
            return result, perf_counter() - t0

    if progress is not None:
        progress("bench: serial sweep leg (REPRO_WORKERS=1) ...")
    serial, serial_s = leg(1)

    usable = usable_cpus()
    report: Dict[str, object] = {
        "shape": {
            "figure": "fig4",
            "system": system.name,
            "x_values": theta_values,
            "variants": sorted(serial.curves),
            "scale": scale,
            "trials": serial.scale.trials,
            "tasks": len(theta_values) * len(serial.curves)
            * serial.scale.trials,
        },
        "serial_seconds": round(serial_s, 3),
    }
    if usable < 2:
        # A timing comparison here would only measure process-spawn
        # overhead and read as a phantom regression.  Skip the timing,
        # but still run a 2-worker leg so the serial≡parallel
        # determinism gate is exercised even on one core.
        if progress is not None:
            progress(
                "bench: parallel timing skipped (1 usable CPU); "
                "running 2-worker identity leg ..."
            )
        warm_pool(2)
        parallel, _ = leg(2)
        report.update(
            parallel_seconds=None,
            parallel_workers=2,
            speedup=None,
            skipped="cpu_count<2",
        )
    else:
        workers = usable
        if progress is not None:
            progress(f"bench: parallel sweep leg ({workers} workers) ...")
        # Warm the persistent pool first: the measurement is
        # steady-state sweep throughput, not one-time worker start-up
        # (the pool is reused across sweeps within a process).
        with _workers_env(workers):
            warm_pool(workers)
        parallel, parallel_s = leg(workers)
        report.update(
            parallel_seconds=round(parallel_s, 3),
            parallel_workers=workers,
            speedup=(
                round(serial_s / parallel_s, 3) if parallel_s else None
            ),
        )
    report["identical"] = serial.curves == parallel.curves
    return report


def run_bench(
    quick: bool = False,
    out: Optional[str] = DEFAULT_OUT,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run both benchmarks; write *out* (unless None) and return the
    report dict."""
    if progress is not None:
        progress("bench: engine microbenchmark ...")
    engine = engine_benchmark(
        n_events=ENGINE_EVENTS // 4 if quick else ENGINE_EVENTS
    )
    sweep = sweep_benchmark(quick=quick, seed=seed, progress=progress)
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "cpu_usable": usable_cpus(),
        "engine": engine,
        "sweep": sweep,
        "provenance": run_provenance(seed=seed, scale=sweep["shape"]["scale"]),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
    return report


def render_report(report: Dict[str, object]) -> str:
    """Human summary of a :func:`run_bench` report."""
    engine = report["engine"]
    sweep = report["sweep"]
    lines = [
        f"engine: {engine['events_per_sec']:,.0f} events/sec "
        f"({engine['events']} events, best of {engine['repeats']})",
    ]
    shape = (
        f"sweep ({sweep['shape']['figure']}, {sweep['shape']['system']} "
        f"system, {sweep['shape']['tasks']} tasks): "
        f"serial {sweep['serial_seconds']:.2f}s"
    )
    cpus = (
        f"(cpu_count={report['cpu_count']}"
        + (
            f", usable={report['cpu_usable']})"
            if "cpu_usable" in report
            else ")"
        )
    )
    if sweep.get("skipped"):
        lines.append(
            f"{shape}; parallel timing skipped [{sweep['skipped']}] {cpus}"
        )
    else:
        lines.append(
            f"{shape} vs parallel {sweep['parallel_seconds']:.2f}s "
            f"on {sweep['parallel_workers']} workers "
            f"-> speedup {sweep['speedup']:.2f}x {cpus}"
        )
    lines.append(f"serial/parallel results identical: {sweep['identical']}")
    return "\n".join(lines)


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = REGRESSION_THRESHOLD,
) -> Tuple[List[str], bool]:
    """Per-metric deltas of *current* vs a *baseline* report.

    Returns ``(lines, regressed)`` where *regressed* is True iff the
    engine events/sec dropped by more than *threshold* (the gating
    metric: events/sec is hardware-comparable within one host class,
    while sweep wall times also move with load and task shape, so those
    are reported but never gate).  Tolerates older-schema baselines
    (/1 has no ``cpu_usable``; a /2 ``scheduler`` section is ignored).
    """

    def pct(new: float, old: float) -> str:
        if not old:
            return "n/a"
        return f"{(new - old) / old:+.1%}"

    lines: List[str] = []
    cur_eps = current["engine"]["events_per_sec"]
    base_eps = baseline["engine"]["events_per_sec"]
    regressed = bool(base_eps) and cur_eps < base_eps * (1.0 - threshold)
    lines.append(
        f"engine events/sec: {cur_eps:,.0f} vs baseline {base_eps:,.0f} "
        f"({pct(cur_eps, base_eps)})"
        + (f"  ** REGRESSION (> {threshold:.0%} drop) **" if regressed else "")
    )

    for field, label in (
        ("serial_seconds", "sweep serial seconds"),
        ("parallel_seconds", "sweep parallel seconds"),
        ("speedup", "sweep speedup"),
    ):
        cur_v = current["sweep"].get(field)
        base_v = baseline["sweep"].get(field)
        if cur_v is None or base_v is None:
            skip = current["sweep"].get("skipped") or baseline["sweep"].get(
                "skipped"
            )
            lines.append(f"{label}: not compared ({skip or 'missing'})")
        else:
            lines.append(f"{label}: {cur_v} vs {base_v} ({pct(cur_v, base_v)})")

    if current.get("quick") != baseline.get("quick"):
        lines.append(
            "note: quick flags differ "
            f"(current={current.get('quick')}, "
            f"baseline={baseline.get('quick')}) — deltas are not "
            "like-for-like"
        )
    return lines, regressed
