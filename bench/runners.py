"""One run of one workload: set up, measure, check.

Three kinds of workload (``bench/workloads/<name>.json``):

``sim``
    repetitions of one :class:`Simulation` of the workload's config;
``sweep``
    repetitions of the Figure 4 grid through ``run_sweep`` on a
    pre-warmed pool (alternating the recorded metric between
    utilization and acceptance ratio — the simulations run are the same);
``live``
    a gateway subprocess (``bench/live_gateway.py``) on loopback,
    replayed open-loop by a :class:`LoadGenerator` in this process.

**Seed.**  The harness, not the program, applies ``--seed``, and only
to the request stream: repetition *i* draws its Poisson/Zipf arrivals
from ``stream_seed(seed, i)``, while the catalog, the placement and the
fault schedule stay those of the workload file's own ``config.seed``.
Re-drawing the catalog and placement is a different *system*, not a
different input — it moves run time by 30-140 % — and the driver judges
the benchmark by its spread across seeds.

**Size.**  ``seconds`` buys a fixed amount of work, not a deadline:
``seconds / unit_s`` repetitions (``unit_s`` being what one repetition
takes on the reference host), so a faster program finishes early and
simulated metrics do not depend on host speed.  Repetitions are short
and many because of the host noise described in ``hostclock.py``; every
host-time number is calibrated there and reported as a median.

With ``trace=False`` a run returns the end-to-end metrics and touches
nothing in ``repro``.  With ``trace=True`` each repetition is run bare
and again under :class:`layers.LayerTrace`, the two results must be
equal, and the per-layer metrics are returned.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro import obs
from repro.experiments import base as sweep_base
from repro.experiments.base import ExperimentScale, run_sweep
from repro.experiments.fig4_drm import variants_for
from repro.serve.bridge import PolicyBridge, decisions_digest
from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadGenerator
from repro.serve.protocol import encode_frame, read_frame
from repro.simulation import Simulation, SimulationConfig
from repro.workload.arrivals import (
    ARRIVALS,
    PoissonArrivalProcess,
    calibrated_arrival_rate,
)
from repro.workload.trace import generate_trace

from hostclock import HostClock, cpu_seconds
from spans import median, merge_totals, percentile, supported

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_DIR = BENCH_DIR / "workloads"

#: Set-ups timed for ``setup_s`` (the median is reported).
SIM_SETUP_REPS = 9
POOL_SETUP_REPS = 5
GATEWAY_SETUP_REPS = 5

#: Share of one repetition run once, untimed, before measuring.
WARMUP_SHARE = 0.2


class SeededPoissonArrivals(PoissonArrivalProcess):
    """The program's Poisson arrival process on a stream the harness
    seeds (``arrival_params={"stream_seed": n}``) instead of the
    ``arrivals`` substream of ``config.seed``."""

    def __init__(self, engine, rate, popularity, rng, on_arrival, stream_seed):
        super().__init__(
            engine, rate, popularity,
            np.random.default_rng(int(stream_seed)), on_arrival,
        )


#: Registered through the public arrival-process registry; pool workers
#: inherit it by fork.
ARRIVALS.register(
    "bench_seeded_poisson", SeededPoissonArrivals, replace=True,
    help="Poisson arrivals on a harness-seeded stream (bench/)",
)


def stream_seed(seed: int, repetition: int) -> int:
    """The request-stream seed of one repetition of one run."""
    return abs(int(seed)) * 4096 + repetition


@dataclasses.dataclass
class Outcome:
    """What one run measured."""

    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics (untraced run) or per-layer metrics (traced).
    metrics: Dict[str, float]
    #: Extra, for the ledger report: digests, sample counts, live-only
    #: latencies, problems found by the checks.
    detail: Dict[str, Any]


def load_workload(name: str) -> Dict[str, Any]:
    with open(WORKLOAD_DIR / f"{name}.json") as fh:
        return json.load(fh)


def workload_names() -> List[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))


#: A run still going after ``OVERRUN x seconds`` stops early — the
#: driver's whole schedule has a deadline, and 158 runs of 18 s + set-up
#: just fit it.  Repetitions plus calibration nominally take ~1.3 x
#: seconds, so this bites on a host ~1.4x slower than the reference;
#: ``detail["cut_short"]`` says so.
OVERRUN = 1.8
MIN_REPETITIONS = 4


class Repetitions:
    """The repetitions *seconds* buys: ``seconds / unit_s``, each run
    *share* times by the traced pass."""

    def __init__(self, workload: Dict[str, Any], seconds: float, share: int = 1):
        self.planned = max(2, round(seconds / workload["unit_s"] / share))
        self._deadline = perf_counter() + max(seconds, 1.0) * OVERRUN
        self.done = 0

    def __iter__(self):
        for rep in range(self.planned):
            if rep >= MIN_REPETITIONS and perf_counter() > self._deadline:
                break
            yield rep
            self.done = rep + 1

    @property
    def cut_short(self) -> bool:
        return self.done < self.planned


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


def _result_fields(result) -> Dict[str, Any]:
    """A SimulationResult's measured fields (config and the timestamped
    provenance left out), for digests."""
    fields = dataclasses.asdict(result)
    fields.pop("config")
    fields.pop("provenance")
    return fields


def _scaled_config(workload: Dict[str, Any], scale: float) -> Dict[str, Any]:
    config = dict(workload["config"])
    for key in ("duration", "warmup"):
        if key in config:
            config[key] = config[key] * scale
    return config


def _repetition_detail(
    reps: Repetitions, walls: List[float], raw_walls: List[float],
    digests: List[str],
) -> Dict[str, Any]:
    """What the ledger keeps about a run's repetitions."""
    return {
        "repetitions": reps.done,
        "cut_short": reps.cut_short,
        "run_wall_s_samples": walls,
        "run_wall_s_raw": raw_walls,
        # One digest per repetition: the traced pass runs fewer, and must
        # agree on the ones it runs.
        "rep_digests": digests,
        "result_digest": _digest(digests),
    }


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def run_sim(
    workload: Dict[str, Any], seed: int, seconds: float, scale: float,
    trace: bool,
) -> Outcome:
    raw = dict(_scaled_config(workload, scale), arrivals="bench_seeded_poisson")
    with_tracer = bool(workload.get("tracer"))
    clock = HostClock()

    def config_for(rep: int) -> SimulationConfig:
        return SimulationConfig.from_dict(
            dict(raw, arrival_params={"stream_seed": stream_seed(seed, rep)})
        )

    def tracer():
        return obs.Tracer() if with_tracer else None

    setups = []
    for _ in range(SIM_SETUP_REPS):
        _, wall, _, k = clock.timed(
            lambda: Simulation(config_for(0), tracer=tracer())
        )
        setups.append(wall * k)

    warm = config_for(0)
    warm = dataclasses.replace(
        warm, duration=warm.duration * WARMUP_SHARE, warmup=0.0
    )
    Simulation(warm, tracer=tracer()).run()

    problems: List[str] = []
    results = []
    walls: List[float] = []      # calibrated
    raw_walls: List[float] = []  # as measured
    cpus: List[float] = []

    if not trace:
        reps = Repetitions(workload, seconds)
        for rep in reps:
            config = config_for(rep)
            sim = Simulation(config, tracer=tracer())
            result, wall, cpu, k = clock.timed(sim.run)
            results.append(result)
            raw_walls.append(wall)
            walls.append(wall * k)
            cpus.append(cpu * k)
        # Same inputs, same outputs: repetition 0 again, without the
        # tracer if the workload carries one.
        if Simulation(config_for(0)).run() != results[0]:
            problems.append(
                "repetition 0 re-run (no tracer) returned a different "
                "SimulationResult"
            )
        metrics = {
            "setup_s": median(setups),
            "run_wall_s": median(walls),
            "cpu_s": median(cpus),
            "peak_rss_mb": _peak_rss_mb(),
            "acceptance_ratio": fmean(r.acceptance_ratio for r in results),
            "utilization": fmean(r.utilization for r in results),
        }
    else:
        from layers import (
            LayerTrace, counter_metrics, span_metrics, traced_simulation,
        )

        reps = Repetitions(workload, seconds, share=3 if with_tracer else 2)
        layer_trace = LayerTrace()
        totals: Dict = {}
        stages: List[Dict[str, float]] = []
        counters: List[Dict[str, float]] = []
        trace_ratios: List[float] = []
        tracer_ratios: List[float] = []
        for rep in reps:
            config = config_for(rep)
            bare, wall, _, k = clock.timed(Simulation(config).run)
            untraced_wall = bare_wall = wall * k
            if with_tracer:
                # The workload as the untraced runs see it: tracer on,
                # no bench wrappers.
                sim = Simulation(config, tracer=tracer())
                result, wall, _, k = clock.timed(sim.run)
                untraced_wall = wall * k
                tracer_ratios.append(untraced_wall / bare_wall)
                if result != bare:
                    problems.append(f"repetition {rep}: tracer changed the result")
            with layer_trace:
                sim, stage_s = traced_simulation(layer_trace, config, tracer())
                result, wall, _, k = clock.timed(sim.run)
            if result != bare:
                problems.append(f"repetition {rep}: wrappers changed the result")
            results.append(result)
            raw_walls.append(wall)
            walls.append(wall * k)
            trace_ratios.append(wall * k / untraced_wall)
            stages.append(stage_s)
            counters.append(counter_metrics(sim))
            merge_totals(totals, layer_trace.totals(), k)
        metrics = span_metrics(totals, layer_trace, reps.done)
        for name in counters[0]:
            metrics[name] = fmean(c[name] for c in counters)
        for name in stages[0]:
            metrics[name] = median([s[name] for s in stages])
        if tracer_ratios:
            metrics["obs.tracer.overhead_ratio"] = median(tracer_ratios)
        metrics["bench.trace_overhead_ratio"] = median(trace_ratios)

    failed = sum(r.underruns + r.chain_underruns for r in results)
    detail = dict(
        problems=problems,
        **_repetition_detail(
            reps, walls, raw_walls, [_digest(_result_fields(r)) for r in results]
        ),
        counts={
            k: sum(getattr(r, k) for r in results)
            for k in ("arrivals", "rejected", "migrations", "chained",
                      "patched", "retries", "faults_injected", "dropped",
                      "events_fired")
        },
    )
    return Outcome(
        correct=not problems and failed == 0,
        attempted=sum(r.arrivals for r in results),
        failed=failed,
        metrics=metrics,
        detail=detail,
    )


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
_SWEEP_METRICS = ("utilization", "acceptance_ratio")


def run_sweep_workload(
    workload: Dict[str, Any], seed: int, seconds: float, scale: float,
    trace: bool,
) -> Outcome:
    raw = dict(_scaled_config(workload, scale), arrivals="bench_seeded_poisson")
    thetas = workload["thetas"]
    structure = SimulationConfig.from_dict(raw)
    variants = variants_for(structure.system.name)
    cells = len(thetas) * len(variants)
    workers = min(os.cpu_count() or 1, workload["workers"])
    clock = HostClock()

    def sweep(rep: int, metric: str, fraction: float = 1.0):
        base = SimulationConfig.from_dict(
            dict(raw, arrival_params={"stream_seed": stream_seed(seed, rep)})
        )
        size = ExperimentScale(
            duration=base.duration * fraction,
            warmup=base.warmup * fraction,
            trials=1,
            scale=scale,
        )
        result = run_sweep(
            base, thetas, variants, size, metric=metric, base_seed=base.seed
        )
        return {label: result.means(label) for label in result.curves}

    problems: List[str] = []
    previous_workers = os.environ.get("REPRO_WORKERS")
    try:
        os.environ["REPRO_WORKERS"] = str(workers)
        warms = []
        for _ in range(POOL_SETUP_REPS):
            sweep_base.shutdown_pool()
            _, wall, _, k = clock.timed(lambda: sweep_base.warm_pool(workers))
            warms.append(wall * k)
        sweep(0, "utilization", WARMUP_SHARE)

        reps = Repetitions(workload, seconds, share=3 if trace else 1)
        curves: List[Dict] = []
        walls: List[float] = []
        raw_walls: List[float] = []
        serials: List[float] = []
        # Workers' CPU is only readable once they are reaped, so it is
        # taken over the whole loop and calibrated by the loop's mean.
        children_cpu0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        parent_cpu = 0.0
        scales: List[float] = []
        for rep in reps:
            metric = _SWEEP_METRICS[rep % 2]
            got, wall, cpu, k = clock.timed(lambda: sweep(rep, metric))
            curves.append(got)
            raw_walls.append(wall)
            walls.append(wall * k)
            parent_cpu += cpu
            scales.append(k)
            if trace:
                # The serial leg: same grid, one process, grid order.
                os.environ["REPRO_WORKERS"] = "1"
                serial, wall, _, k = clock.timed(lambda: sweep(rep, metric))
                os.environ["REPRO_WORKERS"] = str(workers)
                serials.append(wall * k)
                if serial != got:
                    problems.append(
                        f"repetition {rep}: parallel curves differ from serial"
                    )
        if sweep(0, _SWEEP_METRICS[0]) != curves[0]:
            problems.append("repetition 0 re-run returned different curves")
    finally:
        sweep_base.shutdown_pool()
        if previous_workers is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = previous_workers

    def mean_over_cells(metric_index: int) -> float:
        return fmean(
            v
            for got in curves[metric_index::2]
            for series in got.values()
            for v in series
        )

    if trace:
        metrics = {
            "experiments.sweep.cells": cells,
            "experiments.sweep.serial_s": median(serials),
            "experiments.sweep.speedup": median(
                [s / p for s, p in zip(serials, walls)]
            ),
            "experiments.sweep.pool_warm_s": median(warms),
            # Nothing is wrapped inside the worker processes.
            "bench.trace_overhead_ratio": 1.0,
        }
    else:
        children_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - children_cpu0
        metrics = {
            "setup_s": median(warms),
            "run_wall_s": median(walls),
            # The pool also ran the warm-up sweep and the re-run.
            "cpu_s": (parent_cpu + children_cpu)
            / (reps.done + 1 + WARMUP_SHARE) * fmean(scales),
            "peak_rss_mb": max(
                _peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN)
            ),
            "acceptance_ratio": mean_over_cells(1),
            "utilization": mean_over_cells(0),
        }
    return Outcome(
        correct=not problems,
        attempted=cells * reps.done,
        failed=0,
        metrics=metrics,
        detail={
            "problems": problems,
            "workers": workers,
            **_repetition_detail(
                reps, walls, raw_walls, [_digest(c) for c in curves]
            ),
        },
    )


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
class _SessionProbe:
    """A do-nothing client fault plan: the load generator's documented
    per-session transport hook, used here only to note when the
    ``request`` frame was written and when its answer began to arrive."""

    cut_vt = None

    def __init__(self, clock) -> None:
        self.clock = clock
        self.wrote: Optional[float] = None
        self.answered: Optional[float] = None

    def wrap(self, reader, writer):
        return _StampedReader(reader, self), _StampedWriter(writer, self)


class _StampedWriter:
    def __init__(self, writer, probe: _SessionProbe) -> None:
        self._writer = writer
        self._probe = probe

    def write(self, data) -> None:
        if self._probe.wrote is None:
            self._probe.wrote = self._probe.clock()
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


class _StampedReader:
    def __init__(self, reader, probe: _SessionProbe) -> None:
        self._reader = reader
        self._probe = probe

    async def read(self, n: int = -1) -> bytes:
        data = await self._reader.read(n)
        if self._probe.answered is None:
            self._probe.answered = self._probe.clock()
        return data

    def __getattr__(self, name):
        return getattr(self._reader, name)


def _request_trace(config: SimulationConfig, seed: int):
    """The Poisson/Zipf trace ``repro.serve.loadgen.arrival_trace`` would
    build for *config*, on a stream seeded by the harness."""
    sim = Simulation(config)
    rate = calibrated_arrival_rate(
        sim.popularity, sim.catalog, config.system.total_bandwidth,
        load=config.load,
    )
    return generate_trace(
        config.duration, rate, sim.popularity,
        np.random.default_rng(stream_seed(seed, 0)),
    )


async def _codec_us(payload_bytes: int, frames: int = 2000) -> Dict[str, float]:
    """Microseconds to encode / decode one chunk-sized frame."""
    header = {"type": "chunk", "t": 123.456789012, "server": 2,
              "mb": 15.000000001, "seq": 7}
    payload = b"\x00" * payload_bytes
    t0 = perf_counter()
    for _ in range(frames):
        wire = encode_frame(header, payload)
    encode = (perf_counter() - t0) / frames
    reader = asyncio.StreamReader()
    reader.feed_data(wire * frames)
    reader.feed_eof()
    t0 = perf_counter()
    for _ in range(frames):
        await read_frame(reader)
    decode = (perf_counter() - t0) / frames
    return {
        "serve.protocol.encode_us": encode * 1e6,
        "serve.protocol.decode_us": decode * 1e6,
    }


def run_live(
    workload: Dict[str, Any], seed: int, seconds: float, scale: float,
    trace: bool,
) -> Outcome:
    knobs = workload["serve"]
    compression = knobs["compression"]
    virtual = max(1.0, seconds * scale) * compression
    raw = dict(workload["config"], duration=virtual)
    config = SimulationConfig.from_dict(raw)
    arrivals = _request_trace(config, seed)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "live_gateway.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        child.stdin.write(json.dumps({
            "config": raw,
            "serve": dict(knobs, port=0, ops_port=None),
            "trace": trace,
            "setup_reps": GATEWAY_SETUP_REPS,
        }) + "\n")
        child.stdin.flush()
        hello = json.loads(child.stdout.readline())
        serve = ServeConfig(**knobs, port=hello["port"])

        stamps: List[_SessionProbe] = []

        async def replay():
            clock = asyncio.get_running_loop().time
            stamps.extend(_SessionProbe(clock) for _ in range(len(arrivals)))
            generator = LoadGenerator(serve, arrivals, faults=stamps.__getitem__)
            return await generator.run()

        loadgen_cpu0 = cpu_seconds()
        t0 = perf_counter()
        report = asyncio.run(replay())
        child.stdin.write("stop\n")
        child.stdin.flush()
        summary = json.loads(child.stdout.readline())
        run_wall = perf_counter() - t0
        loadgen_cpu = cpu_seconds() - loadgen_cpu0
    finally:
        child.stdin.close()
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()

    problems: List[str] = []
    if child.returncode != 0:
        problems.append(f"gateway exited with {child.returncode}")
    replayed = hashlib.sha256(
        decisions_digest(PolicyBridge(config).replay(arrivals)).encode()
    ).hexdigest()
    if replayed != summary["digest"]:
        problems.append("live decisions differ from the virtual replay")
    counters = summary["serve"]
    policy = summary["policy"]
    failed = (
        report.errors + report.lost + report.underruns
        + policy["underruns"] + counters["parity_clamps"]
    )

    # A session is timed from its own first write; how late that write
    # was against the open-loop schedule is reported beside it.
    origin = stamps[0].wrote - serve.to_wall(arrivals[0].time)
    admit_ms = [
        (s.answered - s.wrote) * 1e3
        for s in stamps if s.wrote is not None and s.answered is not None
    ]
    late_ms = [
        max(0.0, s.wrote - origin - serve.to_wall(request.time)) * 1e3
        for s, request in zip(stamps, arrivals) if s.wrote is not None
    ]
    lateness = summary["chunk_lateness_ms"]
    latency: Dict[str, Any] = {
        "admit_latency_ms_p50": percentile(admit_ms, 50.0),
        "admit_latency_ms_p99": percentile(admit_ms, 99.0),
        "admit_latency_ms_n": len(admit_ms),
        "chunk_lateness_ms_p50": lateness["p50"],
        "chunk_lateness_ms_p999": lateness["p999"],
        "chunk_lateness_ms_n": lateness["n"],
    }
    for label, q, count in (
        ("admit_latency_ms_p99", 99.0, len(admit_ms)),
        ("chunk_lateness_ms_p999", 99.9, lateness["n"]),
    ):
        if not supported(count, q):
            latency[f"{label}_note"] = f"n={count} is too few for p{q:g}"

    sessions = len(report.sessions)
    k = summary["host_scale"]
    if trace:
        metrics = dict(summary["layers"])
        metrics.update(asyncio.run(_codec_us(
            int(counters["chunk_megabits"] / max(1, counters["chunks"])
                * serve.bytes_per_megabit)
        )))
        metrics.update({
            "serve.gateway.cpu_ms_per_session": summary["cpu_s"] * k / sessions * 1e3,
            "serve.gateway.chunks": counters["chunks"],
            "serve.gateway.parity_clamps": counters["parity_clamps"],
            "serve.gateway.send_retries": counters["send_retries"],
            "serve.gateway.handshake_errors": counters["handshake_errors"],
            "serve.gateway.drain_s": summary["drain_s"],
            "serve.gateway.chunk_lateness_ms_p50": latency["chunk_lateness_ms_p50"],
            "serve.gateway.chunk_lateness_ms_p999": latency["chunk_lateness_ms_p999"],
            "serve.loadgen.admit_latency_ms_p50": latency["admit_latency_ms_p50"],
            "serve.loadgen.admit_latency_ms_p99": latency["admit_latency_ms_p99"],
            "serve.loadgen.cpu_s": loadgen_cpu,
            "serve.loadgen.late_ms_p99": percentile(late_ms, 99.0),
            "serve.loadgen.peak_concurrency": report.peak_concurrency,
            # The paced wall time cannot show the wrappers' cost and this
            # pass has no untraced twin; the ledger fills it in from CPU.
            "bench.trace_overhead_ratio": 1.0,
        })
    else:
        metrics = {
            "setup_s": median(hello["setup_s"]),
            "run_wall_s": run_wall,
            "cpu_s": summary["cpu_s"] * k,
            "peak_rss_mb": summary["peak_rss_mb"],
            "acceptance_ratio": policy["accepted"] / policy["arrivals"],
            "utilization": summary["utilization"],
        }
    return Outcome(
        correct=not problems and failed == 0,
        attempted=sessions,
        failed=failed,
        metrics=metrics,
        detail={
            "problems": problems,
            "repetitions": 1,
            "transport": "loopback (127.0.0.1), one load-generator process",
            "sessions": sessions,
            "sessions_per_s": sessions / serve.to_wall(virtual),
            "gateway_cpu_s": summary["cpu_s"] * k,
            "gateway_cpu_s_raw": summary["cpu_s"],
            "rep_digests": [summary["digest"][:16]],
            "result_digest": summary["digest"][:16],
            "live": latency,
            "counts": {
                "rejected": policy["rejected"],
                "migrations": policy["migrations"],
                "chunks": counters["chunks"],
            },
        },
    )


RUNNERS = {"sim": run_sim, "sweep": run_sweep_workload, "live": run_live}


def run_workload(
    name: str, seed: int, seconds: float, scale: float = 1.0,
    trace: bool = False,
) -> Outcome:
    workload = load_workload(name)
    return RUNNERS[workload["kind"]](workload, seed, seconds, scale, trace)
