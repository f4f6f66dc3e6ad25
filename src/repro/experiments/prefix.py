"""EXT-PREFIX: the prefix-cache / stream-sharing figure — ``repro prefix``.

Runs a committed scenario's ``prefix`` block (docs/CACHING.md) and
produces the tier's headline figure plus two supporting sweeps:

* the **capacity figure** — the scenario at its (≥100%) offered load
  with the configured tier versus the no-tier baseline, same seed;
* the **hit-rate sweep** — cache hit rate across Zipf θ values (skew
  helps a popularity-ranked cache; uniform demand dilutes it);
* the **window sweep** — shared/chained sessions and rejection rate
  across batching windows (bigger windows share more, bounded by the
  cached prefix length under ``window`` batching).

This verb only draws; the gate on the figure (tier strictly below the
baseline, zero chained-session underruns, same-seed identity) is
``repro verify`` (:mod:`repro.experiments.verify`).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any, Dict, List

from repro.experiments.registry import ExperimentSpec, register
from repro.scenario import load_scenario_or_exit
from repro.simulation import SimulationConfig, run_simulation

#: Default committed scenario (see scenarios/prefix_zipf_overload.json).
DEFAULT_SCENARIO = "scenarios/prefix_zipf_overload.json"

#: Default sweep grids (overridable via --thetas / --windows).
DEFAULT_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
DEFAULT_WINDOWS = (0.0, 10.0, 20.0, 45.0, 90.0)


def result_row(result) -> Dict[str, Any]:
    """The deterministic slice of one run's results (JSON-ready)."""
    return {
        "arrivals": result.arrivals,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "rejection_ratio": round(result.rejection_ratio, 9),
        "finished": result.finished,
        "dropped": result.dropped,
        "underruns": result.underruns,
        "chained": result.chained,
        "patched": result.patched,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_hit_rate": round(result.cache_hit_rate, 9),
        "cache_megabits": round(result.cache_megabits, 6),
        "chain_underruns": result.chain_underruns,
        "megabits_sent": round(result.megabits_sent, 6),
    }


def baseline_config(config: SimulationConfig) -> SimulationConfig:
    """The same run without the tier (the figure's 'without' side)."""
    return dataclasses.replace(config, prefix=None)


def run_report(
    config: SimulationConfig,
    thetas: List[float],
    windows: List[float],
) -> Dict[str, Any]:
    """One full (deterministic) evaluation of the scenario config."""
    with_tier = result_row(run_simulation(config))
    without = result_row(run_simulation(baseline_config(config)))
    hit_rate = [
        {
            "theta": theta,
            **result_row(
                run_simulation(dataclasses.replace(config, theta=theta))
            ),
        }
        for theta in thetas
    ]
    window_sweep = [
        {
            "window_seconds": window,
            **result_row(run_simulation(dataclasses.replace(
                config,
                prefix=dataclasses.replace(
                    config.prefix, window_seconds=window
                ),
            ))),
        }
        for window in windows
    ]
    return {
        "figure": {"with_tier": with_tier, "without_tier": without},
        "hit_rate_vs_theta": hit_rate,
        "window_sweep": window_sweep,
    }


def render_figure(report: Dict[str, Any], load: float) -> List[str]:
    """The headline figure as plain text lines."""
    with_tier = report["figure"]["with_tier"]
    without = report["figure"]["without_tier"]
    lines = [
        f"capacity at {load:.0%} offered load (rejection rate):",
        f"  {'':14}{'arrivals':>9} {'rejected':>9} {'rej rate':>9} "
        f"{'chained':>8}",
    ]
    for label, row in (("with tier", with_tier), ("without tier", without)):
        lines.append(
            f"  {label:<14}{row['arrivals']:>9} {row['rejected']:>9} "
            f"{row['rejection_ratio']:>9.4f} {row['chained']:>8}"
        )
    return lines


def run_prefix_cli(args, progress) -> int:
    """Draw the capacity figure and both sweeps for one scenario."""
    scenario = load_scenario_or_exit(args.scenario)
    config = scenario.config
    if config.prefix is None:
        print(
            f"repro prefix: scenario {scenario.name!r} has no prefix "
            f"block",
            file=sys.stderr,
        )
        return 2
    report = run_report(
        config,
        args.thetas if args.thetas else list(DEFAULT_THETAS),
        args.windows if args.windows else list(DEFAULT_WINDOWS),
    )
    for line in render_figure(report, config.load):
        print(line)
    print(json.dumps(
        {"scenario": scenario.name, "report": report},
        indent=2, sort_keys=True,
    ))
    return 0


# ----------------------------------------------------------------------
# CLI self-registration (see repro.experiments.registry)
# ----------------------------------------------------------------------
def _floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _cli_arguments(parser) -> None:
    parser.add_argument(
        "scenario", nargs="?", default=DEFAULT_SCENARIO,
        help=f"scenario JSON with a prefix block "
             f"(default {DEFAULT_SCENARIO})",
    )
    parser.add_argument(
        "--thetas", type=_floats, default=None, metavar="T1,T2,...",
        help="Zipf θ grid for the hit-rate sweep "
             f"(default {','.join(map(str, DEFAULT_THETAS))})",
    )
    parser.add_argument(
        "--windows", type=_floats, default=None, metavar="W1,W2,...",
        help="batching-window grid (seconds) for the window sweep "
             f"(default {','.join(map(str, DEFAULT_WINDOWS))})",
    )


register(ExperimentSpec(
    name="prefix",
    help="prefix-cache / stream-sharing figure: run a scenario with the "
         "tier and the no-tier baseline at the same (>=100%) offered "
         "load, sweep cache hit rate over Zipf θ and sharing over the "
         "batching window (the gate on it is `repro verify`)",
    run_cli=run_prefix_cli,
    add_arguments=_cli_arguments,
    bare=True,
    order=97,
))
