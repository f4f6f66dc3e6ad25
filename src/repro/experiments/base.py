"""Shared experiment machinery: scaling, trials, sweeps, parallelism.

The paper's full fidelity is **5 trials × 1000 simulated hours** per
data point.  A pure-Python single run of the large system costs a few
hundred milliseconds per simulated hour, so experiments take a
``scale`` knob (also settable via the ``REPRO_SCALE`` environment
variable) that proportionally shrinks duration and trial count while
preserving the curve shapes.  Each recorded result notes its scale.

Parallelism is **grid-level and chunked**: :func:`run_sweep` flattens
the whole (x × variant × trial) grid into one task list, slices it
into contiguous chunks of several grid cells, and dispatches the
chunks to a **process-persistent** :class:`~concurrent.futures
.ProcessPoolExecutor` — created on the first parallel sweep and reused
by every later sweep in the process, so workers are warmed (interpreter
started, ``repro`` imported) exactly once (``REPRO_WORKERS`` overrides
the worker count).  Chunking amortizes task dispatch and result
transport: a worker returns one compact ``(index, metric value)``
payload per chunk instead of pickling a full
:class:`~repro.simulation.SimulationResult` per grid cell.  Results
are slotted by grid index regardless of completion order, and per the
Section 4.1 methodology the same trial seeds are reused across
variants (common random numbers), which pairs the comparisons and
sharpens curve separations at small trial counts — so parallel and
serial execution are bit-identical (enforced by tests).  When
``REPRO_WORKERS=1`` or an observability switch is active
(:func:`repro.obs.runtime.obs_active`), the same chunks run in-process
in strict grid order instead — one collection loop either way — so
traces and profiles aggregate correctly in one process.
"""

from __future__ import annotations

import atexit
import dataclasses
import math
import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from statistics import fmean
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.report import render_series
from repro.analysis.stats import SummaryStats, summarize
from repro.obs.provenance import run_provenance
from repro.obs.runtime import obs_active
from repro.simulation import Simulation, SimulationConfig, SimulationResult
from repro.units import hours

#: Full-fidelity reference points (the paper's Section 4.1 methodology).
PAPER_TRIALS = 5
PAPER_DURATION_HOURS = 1000.0

#: Prime stride between per-trial seeds (any fixed odd constant works;
#: RandomStreams decorrelates streams regardless).
_SEED_STRIDE = 7919


@dataclass(frozen=True)
class ExperimentScale:
    """Concrete per-run sizes derived from a scale factor.

    Attributes:
        duration: simulated seconds per trial (measurement end).
        warmup: excluded ramp-in seconds.
        trials: independent trials per data point.
        scale: the factor these were derived from (for reporting).
    """

    duration: float
    warmup: float
    trials: int
    scale: float

    def describe(self) -> str:
        return (
            f"scale={self.scale:g} ({self.trials} trial(s) x "
            f"{(self.duration - self.warmup) / 3600:.1f}h measured after "
            f"{self.warmup / 3600:.1f}h warmup)"
        )


def resolve_scale(
    scale: Optional[float] = None,
    min_hours: float = 4.0,
    warmup_hours: float = 2.0,
    max_trials: int = PAPER_TRIALS,
) -> ExperimentScale:
    """Turn a scale factor into durations and trial counts.

    ``scale=1`` reproduces the paper's 5×1000 h; the default bench scale
    (0.01) gives 1 trial × 10 measured hours, which preserves every
    qualitative ordering in the paper (verified by the integration
    tests) at ~1000× less compute.

    Args:
        scale: explicit factor; falls back to ``REPRO_SCALE`` env var,
            then 0.01.
        min_hours: floor on the measured window.
        warmup_hours: ramp-in excluded from measurement.
        max_trials: cap on trials (the paper's 5).
    """
    if scale is None:
        raw = os.environ.get("REPRO_SCALE", "0.01")
        try:
            scale = float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_SCALE must be a number (the fidelity factor, "
                f"e.g. REPRO_SCALE=0.01), got {raw!r}"
            ) from None
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    measured_hours = max(min_hours, PAPER_DURATION_HOURS * scale)
    trials = max(1, min(max_trials, round(PAPER_TRIALS * scale * 20)))
    return ExperimentScale(
        duration=hours(measured_hours + warmup_hours),
        warmup=hours(warmup_hours),
        trials=int(trials),
        scale=scale,
    )


@dataclass(frozen=True)
class Variant:
    """One curve of a sweep: a label plus config overrides.

    ``overrides`` are applied to the experiment's base
    :class:`SimulationConfig` via ``dataclasses.replace``.
    """

    label: str
    overrides: Mapping[str, object] = field(default_factory=dict)

    def apply(self, base: SimulationConfig) -> SimulationConfig:
        return dataclasses.replace(base, **dict(self.overrides))


def _run_one(config: SimulationConfig) -> SimulationResult:
    """One grid task (also the in-process retry)."""
    return Simulation(config).run()


def _run_chunk(chunk, metric):
    """Run a chunk of ``(index, config)`` tasks — in a pool worker
    (module-level so it pickles) or, serially, in this process.

    Returns compact ``(index, "ok", metric value)`` /
    ``(index, "err", exception)`` triples — one small list crosses the
    pipe per chunk instead of a pickled
    :class:`~repro.simulation.SimulationResult` per grid cell.
    Per-task failures are captured rather than raised so one bad cell
    doesn't discard its chunk-mates' finished work; the parent retries
    failed cells in-process.
    """
    out = []
    for index, config in chunk:
        try:
            value = getattr(_run_one(config), metric)
        except Exception as exc:
            out.append((index, "err", exc))
        else:
            out.append((index, "ok", value))
    return out


def _noop() -> None:
    """Pool-warming task (see :func:`warm_pool`)."""


#: Least chunks per worker: >1 so a slow chunk doesn't straggle the
#: sweep (work stealing via the shared task queue), small enough that
#: dispatch/transport overhead stays amortized.  The chunk size rounds
#: down, so a pool never gets fewer chunks than this many per worker
#: (or than tasks, when there are fewer).
_CHUNKS_PER_WORKER = 4

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The process-persistent worker pool.

    Created lazily on first use and reused by every later parallel
    sweep in this process, so worker warm-up (interpreter
    start, ``repro`` import) is paid exactly once.  Recreated when the
    requested worker count changes; discarded when broken or
    interrupted (see callers).
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        shutdown_pool(wait=False)
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def shutdown_pool(wait: bool = True) -> None:
    """Shut down the persistent worker pool (no-op when none exists).

    Registered via ``atexit``; tests and benchmarks also call it to
    reset pool state between measurements.
    """
    global _pool, _pool_workers
    pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pool, wait=False)


def warm_pool(workers: Optional[int] = None) -> int:
    """Spin the persistent pool up and wait until every worker is live.

    Submits one no-op task per worker and blocks on the results, so a
    subsequent sweep measures steady-state throughput rather than
    worker start-up.  Returns the resolved worker count (<= 1 means no
    pool was created).
    """
    if workers is None:
        workers = _worker_count()
    if workers <= 1:
        return workers
    pool = _get_pool(workers)
    for future in [pool.submit(_noop) for _ in range(workers)]:
        future.result()
    return workers


class SweepCellError(RuntimeError):
    """A sweep grid cell failed twice (original run + in-process retry).

    The message pins down the exact ``(x, variant, trial)`` cell so a
    multi-hour sweep failure is reproducible with a single run.
    """

    def __init__(self, cell: str, cause: BaseException) -> None:
        super().__init__(
            f"sweep cell [{cell}] failed twice; first failure: "
            f"{type(cause).__name__}: {cause}"
        )
        self.cell = cell


def _retry_cell(
    config: SimulationConfig, cell: str, cause: BaseException
) -> SimulationResult:
    """One in-process retry for a failed cell.

    Transient failures (a worker OOM-killed, a flaky interpreter) get a
    second chance without losing the rest of the sweep; a deterministic
    failure surfaces as :class:`SweepCellError` naming the cell.
    """
    try:
        return _run_one(config)
    except Exception as retry_exc:
        raise SweepCellError(cell, cause) from retry_exc


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count`` reports the host's logical CPUs even when a
    cgroup / affinity mask (CI runners, containers) restricts the
    process to fewer, which would oversubscribe the pool there.
    Prefers the affinity mask where the platform exposes it.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


def _worker_count() -> int:
    if obs_active():
        # Tracing/profiling aggregate in-process (JSONL appends and the
        # profile accumulator); keep trials on one worker.
        return 1
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer worker-process count "
                f"(e.g. REPRO_WORKERS=4, or 1 to force serial), got "
                f"{env!r}"
            ) from None
        return max(1, value)
    return usable_cpus()


def trial_seeds(trials: int, base_seed: int = 0) -> List[int]:
    """The common-random-number seed ladder: trial ``i`` uses
    ``base_seed + i * 7919``, shared by every variant in a sweep."""
    return [base_seed + i * _SEED_STRIDE for i in range(trials)]


@dataclass
class SweepResult:
    """A family of curves over a shared x grid.

    Attributes:
        x_label: the x-axis name (usually ``"theta"``).
        x_values: the grid, as the experiment declared it (integer
            grids such as server counts stay integers).
        curves: variant label → per-x :class:`SummaryStats` of the
            measured metric.
        metric: which :class:`SimulationResult` field was measured.
        scale: the :class:`ExperimentScale` used.
        provenance: run-provenance dict (seed, scale, version, REPRO_*
            env) stamped by :func:`run_sweep`; exporters write it as a
            ``.meta.json`` sidecar next to every result file.
    """

    x_label: str
    x_values: List[float]
    curves: Dict[str, List[SummaryStats]]
    metric: str
    scale: ExperimentScale
    provenance: Optional[Dict] = None

    def means(self, label: str) -> List[float]:
        return [s.mean for s in self.curves[label]]

    def series(self) -> Dict[str, List[float]]:
        return {label: self.means(label) for label in self.curves}

    def at(self, label: str, x: float) -> float:
        """The mean of curve *label* at grid value *x* (by value, so a
        claim about θ = −1.5 does not depend on the grid's length)."""
        return self.curves[label][self.x_values.index(x)].mean

    def gap(
        self, upper: str, lower: str, lo: float = -math.inf, hi: float = math.inf
    ) -> List[float]:
        """Per-point ``upper − lower`` means over the grid points with
        ``lo <= x <= hi`` (every point by default)."""
        return [
            a - b
            for x, a, b in zip(
                self.x_values, self.means(upper), self.means(lower)
            )
            if lo <= x <= hi
        ]

    def mean_gap(self, upper: str, lower: str, **span: float) -> float:
        """The mean of :meth:`gap` over the same span."""
        return fmean(self.gap(upper, lower, **span))

    def render(self, title: str = "", precision: int = 4) -> str:
        header = title or f"{self.metric} vs {self.x_label}"
        return render_series(
            self.x_label,
            self.x_values,
            self.series(),
            precision=precision,
            title=f"{header}  [{self.scale.describe()}]",
        )


#: Grid-cell key: (x index, variant index); trial results are gathered
#: per cell before summarising.
_CellKey = Tuple[int, int]

#: One chunk's results: ``(task index, "ok" | "err", value | exception)``.
_Outcomes = List[Tuple[int, str, object]]


def _pooled(chunks, metric: str, workers: int) -> Iterator[_Outcomes]:
    """Dispatch *chunks* to the persistent pool; yield each chunk's
    outcomes as it completes (any order).

    A chunk whose worker died before returning (or whose payload didn't
    unpickle) comes back with every task marked failed, so the caller's
    per-task in-process retry still completes the sweep; a broken pool
    is discarded afterwards.
    """
    pool = _get_pool(workers)
    futures = {
        pool.submit(_run_chunk, chunk, metric): chunk for chunk in chunks
    }
    broken = False
    try:
        for future in as_completed(futures):
            try:
                outcomes = future.result()
            except Exception as exc:
                broken = broken or isinstance(exc, BrokenExecutor)
                outcomes = [
                    (index, "err", exc) for index, _config in futures[future]
                ]
            yield outcomes
    finally:
        if broken:
            shutdown_pool(wait=False)


def run_sweep(
    base: SimulationConfig,
    x_values: Sequence[float],
    variants: Sequence[Variant],
    scale: ExperimentScale,
    metric: str = "utilization",
    x_field: str = "theta",
    base_seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    cell_config: Optional[
        Callable[[SimulationConfig, Variant, float], SimulationConfig]
    ] = None,
) -> SweepResult:
    """Run a full (x × variant × trial) grid and summarise.

    The grid is flattened into one task list and sliced into contiguous
    chunks.  With several workers the chunks (several cells each) go to
    the process-persistent pool (workers warmed once, reused across
    sweeps), so every independent simulation runs concurrently and a
    worker ships one compact payload per chunk; with one worker
    (``REPRO_WORKERS=1``, a single CPU, or an active observability
    switch) the same chunks, one task each, run in-process in strict
    grid order.  Either way one loop slots the measured values by
    ``(cell, trial)`` and summarises (and reports) a cell once its last
    trial lands, so the output is bit-identical across executors.

    Args:
        base: config template (duration/warmup are overwritten from
            *scale*).
        x_values: the x grid, kept as given in the result.
        variants: the curves.
        scale: trial sizing.
        metric: SimulationResult attribute to record.
        x_field: the axis label, and — without *cell_config* — the
            SimulationConfig field swept along x.
        base_seed: root of the common-random-number seed ladder.
        progress: optional callback receiving one line per grid point
            (in completion order when parallel, grid order when serial).
        cell_config: custom ``(base, variant, x) -> config`` used
            instead of ``replace(variant.apply(base), x_field=x)`` — for
            grids whose cells are not "variant overrides plus one flat
            field" (the MTBF inside a nested
            :class:`~repro.faults.FaultPlan`, a per-(count, kind)
            system); ``x_field`` then only labels the axis.

    Failure semantics: a cell that raises is retried once in-process; a
    second failure raises :class:`SweepCellError` naming the exact
    ``(x, variant, trial)`` cell.  ``KeyboardInterrupt`` cancels all
    pending cells and shuts the pool down instead of hanging on exit.
    """
    base = dataclasses.replace(
        base, duration=scale.duration, warmup=scale.warmup
    )
    if cell_config is None:
        def cell_config(base, variant, x):
            return dataclasses.replace(variant.apply(base), **{x_field: x})

    # Flatten the (x × variant × trial) grid into one task list.  The
    # seed ladder depends only on the trial index (common random
    # numbers), never on the grid position or completion order.
    seeds = trial_seeds(scale.trials, base_seed)
    tasks: List[Tuple[_CellKey, int, SimulationConfig]] = []
    for xi, x in enumerate(x_values):
        for vi, variant in enumerate(variants):
            config = cell_config(base, variant, x)
            for ti, seed in enumerate(seeds):
                tasks.append(
                    ((xi, vi), ti, dataclasses.replace(config, seed=seed))
                )

    # Contiguous grid-order chunks.  On the pool, several cells per
    # submitted task amortize dispatch and result transport; in-process
    # (required for obs aggregation: traces/profiles accumulate in this
    # process) there is nothing to amortize, so one task per chunk keeps
    # progress prompt.
    workers = min(_worker_count(), len(tasks))
    parallel = workers > 1
    chunk_size = (
        max(1, len(tasks) // (workers * _CHUNKS_PER_WORKER))
        if parallel
        else 1
    )
    payload = [(gi, config) for gi, (_key, _ti, config) in enumerate(tasks)]
    chunks = [
        payload[i:i + chunk_size]
        for i in range(0, len(payload), chunk_size)
    ]
    finished = (
        _pooled(chunks, metric, workers)
        if parallel
        else (_run_chunk(chunk, metric) for chunk in chunks)
    )

    cell_values: Dict[_CellKey, List[Optional[float]]] = {}
    cell_stats: Dict[_CellKey, SummaryStats] = {}
    try:
        for outcomes in finished:
            for gi, status, value in outcomes:
                (xi, vi), ti, config = tasks[gi]
                x, label = x_values[xi], variants[vi].label
                if status != "ok":
                    # One in-process retry rescues a transient failure
                    # without losing the rest of the sweep.
                    cell = f"{x_field}={x!r}, variant={label!r}, trial={ti}"
                    value = getattr(_retry_cell(config, cell, value), metric)
                slots = cell_values.setdefault(
                    (xi, vi), [None] * scale.trials
                )
                slots[ti] = value
                if None in slots:
                    continue
                stats = cell_stats[xi, vi] = summarize(slots)
                if progress is not None:
                    x_text = f"{x:+.2f}" if isinstance(x, float) else f"{x}"
                    progress(
                        f"{x_field}={x_text} {label:>24s}: "
                        f"{metric}={stats.mean:.4f}"
                    )
    except KeyboardInterrupt:
        # Cancel queued chunks and discard the pool (its workers may
        # hold half-run simulations) instead of hanging on exit.
        shutdown_pool(wait=False)
        raise

    curves: Dict[str, List[SummaryStats]] = {
        variant.label: [
            cell_stats[(xi, vi)] for xi in range(len(x_values))
        ]
        for vi, variant in enumerate(variants)
    }
    return SweepResult(
        x_label=x_field,
        x_values=list(x_values),
        curves=curves,
        metric=metric,
        scale=scale,
        provenance=run_provenance(
            seed=base_seed,
            scale=scale.scale,
            config=base,
            extra={
                "metric": metric,
                "x_field": x_field,
                "workers": workers,
                "executor": "parallel" if parallel else "serial",
                "chunk_size": chunk_size if parallel else None,
                "trial_seeds": seeds,
            },
        ),
    )


#: The θ grid used by Figures 4, 5 and 7 (−1.5 … 1.0).
THETA_GRID: List[float] = [-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]

#: A shorter grid for the scheduler ablation; keeps the skewed and
#: uniform ends plus the paper's "realistic" mid-range.
THETA_GRID_COARSE: List[float] = [-1.0, -0.5, 0.0, 0.5, 1.0]
