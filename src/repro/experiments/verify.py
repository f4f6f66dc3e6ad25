"""``repro verify <scenario.json>`` — the one gate.

"Is this scenario right" is one question with one entry point: run the
scenario in virtual time, serve it live when it can be served, and
audit both against the contracts the repository keeps (same-seed
identity, simulation == live decision digests, zero underruns, the
fault / elastic / prefix planes' own conservation rules).  What gets run and
what gets checked is read off the scenario itself (:func:`plan`) —
there is no flag, scenario key or environment variable to choose with
(docs/ROBUSTNESS.md, "The gate"):

* the **virtual leg** always runs: the simulation twice at the same
  seed, the first one recording its decisions (a
  :class:`PolicyBridge` run) — the live leg's reference, since the live
  load generator replays that run's own arrivals;
* the **live leg** — :func:`repro.serve.chaos.run_chaos_serve`, a
  gateway and a load generator on loopback — runs iff the gateway
  accepts the config (no ``"serve"`` row of
  :data:`repro.simulation.REFUSALS` trips) and the scenario is at
  most :data:`LIVE_MAX_DURATION` virtual seconds long; a scenario with
  a ``faults`` block gets it twice, under :data:`STRESS`;
* the **checks** (:data:`CHECKS`) each turn the report into problem
  strings; ``faults`` / ``elastic`` / ``prefix`` blocks select theirs
  (a ``faults`` block on either leg: its plan must fire).

The report is one JSON object; any entry in its ``failures`` exits 1.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple, Union

from repro.experiments.registry import ExperimentSpec, Progress, register
from repro.faults.invariants import InvariantViolation
from repro.faults.retry import RetryPolicy
from repro.scenario import Scenario, load_scenario_or_exit
from repro.serve.bridge import PolicyBridge
from repro.serve.chaos import ToxicConfig, run_chaos_serve
from repro.serve.config import ServeConfig
from repro.simulation import SimulationConfig, refusal, run_simulation

#: Longest scenario (virtual seconds) that gets a live leg: 15 wall
#: seconds of streaming at :data:`LIVE_SERVE`'s fixed 40x compression.
LIVE_MAX_DURATION = 600.0

#: Wall-clock side of every live leg.  The clamp headroom of an arrival
#: is ``startup_slack + guard`` wall seconds; it is wide so that a
#: loaded CI box cannot push one behind the policy clock.
LIVE_SERVE = ServeConfig(
    port=0,
    compression=40.0,
    guard=0.5,
    startup_slack=1.0,
    heartbeat_timeout=2.0,
    task_restart_limit=10,
)

#: What a ``faults`` block adds to the live leg: resilient clients on a
#: 4-attempt seeded backoff, 3 ms of jittered link latency on the
#: gateway side, and 15 % of clients severing their own connection once.
STRESS: Dict[str, Any] = {
    "retry": RetryPolicy(max_attempts=4, base_delay=2.0, max_delay=16.0),
    "gateway_toxic": ToxicConfig(latency=0.003, jitter=0.5),
    "cut_prob": 0.15,
}


def plan(config: SimulationConfig) -> Dict[str, Any]:
    """The legs and checks *config* gets, worked out from it alone."""
    why = refusal("serve", config)
    if why is None and config.duration > LIVE_MAX_DURATION:
        why = (
            f"duration {config.duration:g} s is over the "
            f"{LIVE_MAX_DURATION:g} s live-leg limit "
            f"({LIVE_SERVE.to_wall(LIVE_MAX_DURATION):g} wall s at "
            f"{LIVE_SERVE.compression:g}x)"
        )
    live = why is None
    checks = ["determinism"]
    if live:
        checks.append("live")
        if config.faults is None:
            checks.append("parity")
    if config.faults is not None:
        checks.append("faults")
    if config.elastic is not None:
        checks.append("elastic")
    if config.prefix is not None:
        checks.append("prefix")
    return {
        "legs": ["virtual", "live"] if live else ["virtual"],
        "skipped": {} if live else {"live": why},
        "checks": checks,
    }


# ----------------------------------------------------------------------
# The two legs
# ----------------------------------------------------------------------
def result_row(result) -> Dict[str, Any]:
    """The deterministic slice of one run's results (JSON-ready)."""
    return {
        "arrivals": result.arrivals,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "rejection_ratio": round(result.rejection_ratio, 9),
        "finished": result.finished,
        "dropped": result.dropped,
        "chained": result.chained,
        "patched": result.patched,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_hit_rate": round(result.cache_hit_rate, 9),
        "cache_megabits": round(result.cache_megabits, 6),
        "chain_underruns": result.chain_underruns,
        "megabits_sent": round(result.megabits_sent, 6),
    }


def run_virtual(config: SimulationConfig) -> Dict[str, Any]:
    """The virtual leg: two same-seed simulations, the first recording
    its decisions (the live leg's reference)."""
    bridge = PolicyBridge(config)
    first, second = bridge.run(), run_simulation(config)
    leg: Dict[str, Any] = {
        # SimulationResult equality covers every measured field (the
        # provenance stamp carries a timestamp and is left out of it).
        "same_seed_equal": first == second,
        "results": [str(first), str(second)],
        "result": result_row(first),
        "faults_injected": first.faults_injected,
        "digest": bridge.finalize()["decisions_sha"],
        "membership": bridge.controller.membership.to_dict(),
    }
    scaler = bridge.elastic_scaler
    if scaler is not None:
        leg["scaler"] = {
            "scale_outs": scaler.scale_outs,
            "scale_ins": scaler.scale_ins,
            "streams_drained": scaler.streams_drained,
        }
    if config.prefix is not None:
        leg["baseline"] = result_row(
            run_simulation(dataclasses.replace(config, prefix=None))
        )
    return leg


def run_live(
    config: SimulationConfig,
    postmortem: Union[str, Path],
    progress: Progress = None,
) -> List[Dict[str, Any]]:
    """The live leg, once — or twice under :data:`STRESS` when the
    scenario has a fault plan; one JSON-ready report per run."""
    stress = STRESS if config.faults is not None else {}
    runs = []
    for _ in range(2 if stress else 1):
        run = asyncio.run(run_chaos_serve(
            config, serve=LIVE_SERVE, postmortem=postmortem,
            progress=progress, **stress,
        ))
        # The artifact keeps the aggregates, not one row per session.
        del run["summary"]["decisions"], run["load"]["outcomes"]
        runs.append(run)
    return runs


# ----------------------------------------------------------------------
# The checks: report -> problem strings
# ----------------------------------------------------------------------
def _live_runs(report: Dict[str, Any]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    runs = report.get("live", [])
    for number, run in enumerate(runs, start=1):
        yield ("live" if len(runs) == 1 else f"live run {number}"), run


def _check_determinism(report: Dict[str, Any]) -> Iterator[str]:
    if not report["virtual"]["same_seed_equal"]:
        yield (
            f"same-seed results diverged: {report['virtual']['results']} — "
            f"a run is not a function of its config and seed"
        )


def _check_live(report: Dict[str, Any]) -> Iterator[str]:
    for side, run in _live_runs(report):
        if run["invariant_violation"]:
            yield f"{side}: invariant violation: {run['invariant_violation']}"
        if run["parity_clamps"]:
            yield (
                f"{side}: {run['parity_clamps']} parity clamp(s): an "
                f"arrival or re-request landed behind the policy clock"
            )
        if run["leaked_tasks"]:
            yield (
                f"{side}: leaked asyncio tasks after stop(): "
                f"{run['leaked_tasks']}"
            )


def _check_parity(report: Dict[str, Any]) -> Iterator[str]:
    virtual = report["virtual"]["digest"]
    for side, run in _live_runs(report):
        if virtual != run["digest"]:
            yield (
                f"decision digests diverged: virtual {virtual} != "
                f"{side} {run['digest']}"
            )
        load = run["load"]
        if load["underruns"]:
            yield f"{side}: {load['underruns']} client-side underrun(s)"
        if load["errors"] or load["lost"]:
            yield (
                f"{side}: {load['errors']} errored + {load['lost']} lost "
                f"session(s)"
            )


def _check_faults(report: Dict[str, Any]) -> Iterator[str]:
    if not report["virtual"]["faults_injected"]:
        yield (
            "virtual: no fault fired — the fault plan never tripped "
            "(check the scenario's faults block and duration)"
        )
    # Resilient clients add arrivals the simulation does not have, so
    # the live digests are compared with each other, not with the
    # virtual one; lost sessions are legal as long as every one is
    # accounted.
    for side, run in _live_runs(report):
        if not run["chaos"]["failures"]:
            yield (
                f"{side}: no server crash fired — the fault plan never "
                f"tripped (check the scenario's faults block and duration)"
            )
        if not run["chaos"]["live_kills"]:
            yield (
                f"{side}: no live gateway task kill — engine crashes were "
                f"not mirrored into the serving runtime"
            )
        if run["reconciliation"]["unmatched"]:
            yield (
                f"{side}: unaccounted failover-affected request ids: "
                f"{run['reconciliation']['unmatched']}"
            )
    digests = report["digests"].get("live", [])
    if len(set(digests)) > 1:
        yield f"decision digests diverged across same-seed runs: {digests}"


def _check_elastic(report: Dict[str, Any]) -> Iterator[str]:
    virtual = report["virtual"]
    sides = [("virtual", virtual["membership"])] + [
        (side, run["summary"]["serve"]["membership"])
        for side, run in _live_runs(report)
    ]
    for side, membership in sides:
        if not membership["epoch"]:
            yield (
                f"{side}: membership epoch never advanced — no scale "
                f"event fired (check the scenario's elastic block)"
            )
        stuck = {
            sid: state for sid, state in membership["servers"].items()
            if state not in ("active", "departed")
        }
        if stuck:
            yield f"{side}: servers stuck mid-lifecycle at the horizon: {stuck}"
    if not virtual["scaler"]["scale_outs"]:
        yield "virtual: no scale-out executed"
    if not virtual["scaler"]["scale_ins"]:
        yield "virtual: no scale-in executed"
    for side, run in _live_runs(report):
        serve = run["summary"]["serve"]
        if virtual["membership"] != serve["membership"]:
            yield (
                f"membership ledgers diverged between the virtual and "
                f"{side} runs: {virtual['membership']} != "
                f"{serve['membership']}"
            )
        # The gateway must have supervised a task for every server that
        # was ever a member — including mid-run joiners.
        supervised = {
            name.rsplit(".", 1)[-1]
            for name in serve["supervisor"]["tasks"]
            if name.startswith("serve.server.")
        }
        missing = sorted(set(serve["membership"]["servers"]) - supervised)
        if missing:
            yield (
                f"{side}: no serve.server task was ever spawned for "
                f"member(s) {missing}"
            )


def _check_prefix(report: Dict[str, Any]) -> Iterator[str]:
    with_tier = report["virtual"]["result"]
    without = report["virtual"]["baseline"]
    if not with_tier["rejection_ratio"] < without["rejection_ratio"]:
        yield (
            f"tier did not beat the baseline: rejection "
            f"{with_tier['rejection_ratio']:.4f} (with) vs "
            f"{without['rejection_ratio']:.4f} (without) — the capacity "
            f"figure needs a strict improvement"
        )
    if not with_tier["chained"]:
        yield (
            "no session was ever chained — the batching window or the "
            "cache never engaged (check the scenario's prefix block)"
        )
    if with_tier["chain_underruns"]:
        yield (
            f"{with_tier['chain_underruns']} chained-session underrun(s) "
            f"— a shared feed fell behind its playout"
        )


#: Every check :func:`plan` can select, in report order.
CHECKS: Dict[str, Callable[[Dict[str, Any]], Iterator[str]]] = {
    "determinism": _check_determinism,
    "live": _check_live,
    "parity": _check_parity,
    "faults": _check_faults,
    "elastic": _check_elastic,
    "prefix": _check_prefix,
}


def audit(report: Dict[str, Any]) -> List[str]:
    """Every way *report* fails the checks it lists, as messages."""
    return [
        problem
        for name in report["checks"]
        for problem in CHECKS[name](report)
    ]


def verify(
    scenario: Scenario,
    postmortem: Union[str, Path] = "verify_postmortem.jsonl",
    progress: Progress = None,
) -> Dict[str, Any]:
    """Run *scenario*'s legs and checks; the gate's JSON-ready report."""
    config = scenario.config
    report: Dict[str, Any] = {"scenario": scenario.name, **plan(config)}
    try:
        virtual = report["virtual"] = run_virtual(config)
    except InvariantViolation as exc:
        # A broken policy core is not worth serving: nothing else runs.
        report.update(
            legs=["virtual"],
            skipped={"live": "the virtual leg raised an invariant violation"},
            failures=[f"virtual: invariant violation: {exc}"],
        )
        return report
    report["digests"] = {"virtual": virtual["digest"]}
    if "live" in report["legs"]:
        report["live"] = run_live(config, postmortem, progress)
        report["digests"]["live"] = [run["digest"] for run in report["live"]]
    report["failures"] = audit(report)
    return report


def run_verify_cli(args, progress: Progress) -> int:
    """``repro verify``: print the report; exit 1 on any failure."""
    scenario = load_scenario_or_exit(args.scenario)
    report = verify(scenario, postmortem=args.postmortem, progress=progress)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n")
    for failure in report["failures"]:
        print(f"VERIFY FAILURE: {failure}", file=sys.stderr)
    return 1 if report["failures"] else 0


# ----------------------------------------------------------------------
# CLI self-registration (see repro.experiments.registry)
# ----------------------------------------------------------------------
def _cli_arguments(parser) -> None:
    parser.add_argument(
        "scenario", nargs="?", default=None, metavar="FILE",
        help="scenario JSON file (see scenarios/)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report to PATH (the CI artifact)",
    )
    parser.add_argument(
        "--postmortem", default="verify_postmortem.jsonl", metavar="PATH",
        help="flight-recorder dump of the live leg (every supervised "
             "task trip rewrites it; default %(default)s)",
    )


register(ExperimentSpec(
    name="verify",
    help="the gate: run a scenario in virtual time (twice, same seed) "
         "and, when the gateway can serve it within 600 virtual s, live "
         "on loopback; audit determinism, virtual == live decision "
         "digests, underruns, leaks and whatever the scenario's faults / "
         "elastic / prefix blocks promise (exit 1 on any failure)",
    run_cli=run_verify_cli,
    add_arguments=_cli_arguments,
    bare=True,
    order=95,
))
