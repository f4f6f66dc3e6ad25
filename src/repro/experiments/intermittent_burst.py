"""EXT-INT — intermittent transmission under bursty demand.

Section 3.3 defines the *intermittent* class ("a stream alternates
between periods of transmission and no transmission") and sets it aside
because the optimal decision procedure "is impractical to apply in real
time".  This experiment evaluates a practical member of that class
(:mod:`repro.core.intermittent` with overbooked admission) against the
paper's minimum-flow EFTF:

The headline is a **negative result that supports the paper's design
choice**: across stationary and bursty demand alike, the overbooked
intermittent heuristic matches minimum-flow EFTF's acceptance to within
noise while accumulating underruns that grow with burst intensity.
The reason is that EFTF's workahead already *finishes* streams early —
freeing whole slots — so parking buys nothing that early completion
didn't, and the parked streams' post-burst resume pressure converts
directly into viewer glitches.  Restricting to minimum-flow algorithms
(as the paper does, backed by Theorem 1) loses essentially nothing.

Both schedulers replay the *same* bursty trace (paired comparison).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.report import render_table
from repro.cluster.system import SMALL_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import ExperimentScale, resolve_scale
from repro.experiments.registry import Artifact, ExperimentSpec, register
from repro.simulation import Simulation, SimulationConfig
from repro.sim.rng import RandomStreams
from repro.units import hours
from repro.workload.trace import Trace, generate_bursty_trace
from repro.workload.zipf import ZipfPopularity

#: Burst intensities swept (arrival-rate multiplier inside the burst).
BURST_MULTIPLIERS: Sequence[float] = (1.0, 1.5, 2.0, 3.0)


def _build_trace(
    system: SystemConfig,
    duration: float,
    multiplier: float,
    theta: float,
    seed: int,
) -> Trace:
    """Base load at 85 % of capacity with half-hour bursts every 2 h."""
    streams = RandomStreams(seed=seed)
    popularity = ZipfPopularity(system.n_videos, theta)
    probe = Simulation(SimulationConfig(
        system=system, theta=theta, duration=60.0, seed=seed, load=0.85,
    ))
    bursts = []
    t = hours(1)
    while t + hours(0.5) < duration:
        bursts.append((t, hours(0.5), multiplier))
        t += hours(2)
    return generate_bursty_trace(
        duration, probe.arrival_rate, popularity,
        streams.get("burst-trace"), bursts=bursts,
    )


def _replay(
    system: SystemConfig,
    trace: Trace,
    duration: float,
    theta: float,
    seed: int,
    scheduler: str,
    admission: str,
) -> Dict[str, float]:
    config = SimulationConfig(
        system=system, theta=theta, placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.2,     # deep enough to park, too shallow to finish early
        scheduler=scheduler, admission=admission,
        duration=duration, seed=seed, client_receive_bandwidth=30.0,
    )
    sim = Simulation(config)
    sim._arrivals.stop()
    trace.schedule_on(sim.engine, sim.controller.submit)
    result = sim.run()
    return {
        "acceptance": result.acceptance_ratio,
        "utilization": result.utilization,
        "underruns": float(result.underruns),
    }


def run_intermittent_burst(
    system: SystemConfig = SMALL_SYSTEM,
    multipliers: Sequence[float] = BURST_MULTIPLIERS,
    theta: float = 0.27,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Sweep burst intensity; returns rows for both schedulers."""
    exp_scale: ExperimentScale = resolve_scale(scale)
    duration = exp_scale.duration
    rows: List[List[object]] = []
    for mult in multipliers:
        trace = _build_trace(system, duration, mult, theta, seed)
        minflow = _replay(system, trace, duration, theta, seed,
                          scheduler="eftf", admission="minflow")
        overbook = _replay(system, trace, duration, theta, seed,
                           scheduler="intermittent", admission="overbook")
        rows.append([
            mult,
            minflow["acceptance"],
            overbook["acceptance"],
            overbook["acceptance"] - minflow["acceptance"],
            int(overbook["underruns"]),
        ])
        if progress is not None:
            progress(
                f"burst x{mult:g}: minflow={minflow['acceptance']:.4f} "
                f"overbook={overbook['acceptance']:.4f} "
                f"underruns={int(overbook['underruns'])}"
            )
    return {"multipliers": list(multipliers), "rows": rows, "scale": exp_scale}


def render_intermittent_burst(result: Dict[str, object]) -> str:
    scale: ExperimentScale = result["scale"]  # type: ignore[assignment]
    return render_table(
        ["burst x", "accept (minflow EFTF)", "accept (intermittent)",
         "delta", "underruns"],
        result["rows"],  # type: ignore[arg-type]
        title=(
            "EXT-INT: overbooked intermittent vs minimum-flow EFTF under "
            f"bursty demand  [{scale.describe()}]"
        ),
    )


# ----------------------------------------------------------------------
# CLI self-registration (see repro.experiments.registry)
# ----------------------------------------------------------------------

def _cli_run(args, progress) -> int:
    result = run_intermittent_burst(
        scale=args.scale, seed=args.seed, progress=progress,
    )
    print(render_intermittent_burst(result))
    return 0


def _cli_artifacts(scale, seed, progress):
    result = run_intermittent_burst(
        scale=scale, seed=seed, progress=progress,
    )
    yield Artifact(stem="ext_int", text=render_intermittent_burst(result))


register(ExperimentSpec(
    name="burst",
    help="intermittent scheduling under bursty demand (EXT-INT)",
    run_cli=_cli_run,
    artifacts=_cli_artifacts,
    order=110,
))
