#!/usr/bin/env python3
"""The perf ledger: end-to-end and per-layer numbers for seven workloads.

One run of one workload (what the driver of ``BENCHMARK.json`` calls)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` — and exits 0
only if every output check passed.

The whole ledger (every workload: RUNS untraced runs, each in a fresh
process, then one traced run)::

    python3 bench/run.py [--seed N] [--scale F] [--out FILE] [--quick]

prints every metric by name with its unit and writes a JSON report.
``--compare BASE.json NEW.json [more pairs]`` judges two reports,
``--selfcheck`` runs the set twice (and once on a second seed) and holds
the benchmark to its own bounds, ``--selftest`` runs bench/selftest.py.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Untraced runs per workload in the ledger (median, min, max reported).
RUNS = 3

#: End-to-end metrics that exist on ``live_loopback`` only.  The driver's
#: contract wants every ``end_to_end`` metric of BENCHMARK.json on every
#: workload, so there they are per-layer metrics (``serve.loadgen.*`` /
#: ``serve.gateway.*``, from the traced pass); the ledger also takes
#: them from the untraced runs and holds them to these bounds.
LIVE_ONLY = {
    "admit_latency_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.10},
    "admit_latency_ms_p99": {"unit": "ms", "better": "lower", "bound": 0.10},
    "chunk_lateness_ms_p50": {"unit": "ms", "better": "lower", "bound": 0.10},
    "chunk_lateness_ms_p999": {"unit": "ms", "better": "lower", "bound": 0.10},
}

#: Metrics the simulator computes: equal inputs give equal values.
SIMULATED = ("acceptance_ratio", "utilization")


def _to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One run of one workload (the driver's contract)
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import runners
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    outcome = runners.run_workload(
        args.workload, args.seed, args.seconds, args.scale, bool(args.trace)
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    stray = sorted(set(outcome.metrics) - set(units))
    if stray:
        raise SystemExit(f"bench: metrics not in BENCHMARK.json: {stray}")
    if not args.trace:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise SystemExit(f"bench: end-to-end metrics not measured: {missing}")
    line = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # A layer that is off on this workload reads 0.
        "metrics": {
            name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.detail:
        line["detail"] = dict(outcome.detail, measured=sorted(outcome.metrics))
    for problem in outcome.detail.get("problems", ()):
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if outcome.correct else 1


# ----------------------------------------------------------------------
# The ledger: every workload, fresh process per run
# ----------------------------------------------------------------------
def host_block() -> Dict[str, Any]:
    """What must match for two reports to be comparable."""
    from hostclock import ALU_ITERATIONS, alu_spin

    spins = []
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline:
        spins.append(alu_spin())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Fastest of one second of the arithmetic calibration kernel.
        "host_spin_mops": ALU_ITERATIONS / min(spins) / 1e6,
    }


def _child(workload: str, seed: int, seconds: float, scale: float,
           trace: bool) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--scale", str(scale),
        "--trace", "1" if trace else "0", "--detail",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"bench: {workload} printed no result (exit {done.returncode})"
        )
    return json.loads(lines[-1])


def same_results(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Whether two runs agree on every repetition both of them ran (the
    traced pass, and a workload with a longer repetition, run fewer)."""
    shared = min(len(a["rep_digests"]), len(b["rep_digests"]))
    return a["rep_digests"][:shared] == b["rep_digests"][:shared]


def run_set(seed: int, seconds: float, scale: float, runs: int,
            log=print) -> Dict[str, Any]:
    """Measure every workload; returns the report dict."""
    from spans import median, quartiles

    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report: Dict[str, Any] = {
        "schema": "repro-bench-ledger/1",
        "host": host_block(),
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "runs": runs,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        log(f"[{name}] {runs} untraced run(s) + 1 traced ...")
        untraced = [_child(name, seed, seconds, scale, False) for _ in range(runs)]
        traced = _child(name, seed, seconds, scale, True)
        problems: List[str] = []
        notes: List[str] = []
        for i, run in enumerate(untraced + [traced]):
            label = "traced run" if run is traced else f"run {i}"
            if not run["correct"]:
                problems.append(
                    f"{label} failed its checks: "
                    f"{run['detail']['problems'] or run['failed']}"
                )
        first = untraced[0]["detail"]
        for run in untraced[1:] + [traced]:
            if not same_results(first, run["detail"]):
                problems.append(
                    ("the traced run's" if run is traced else "a run's")
                    + " results differ from run 0's"
                )
        if any(run["detail"].get("cut_short") for run in untraced + [traced]):
            notes.append("a run was cut short (host slower than ~1.4x the reference)")

        end_to_end = {}
        declared = dict(bounds)
        samples = {
            metric: [run["metrics"][metric]["value"] for run in untraced]
            for metric in bounds
        }
        if "live" in untraced[0]["detail"]:
            declared.update(LIVE_ONLY)
            for metric in LIVE_ONLY:
                samples[metric] = [run["detail"]["live"][metric] for run in untraced]
        for metric, values in samples.items():
            end_to_end[metric] = {
                **{k: declared[metric][k] for k in ("unit", "better", "bound")},
                "median": median(values),
                "min": min(values),
                "max": max(values),
                "quartiles": quartiles(values),
                "n": len(values),
                "samples": values,
            }
        per_layer = dict(traced["metrics"])
        if "gateway_cpu_s" in traced["detail"]:
            # Paced wall time cannot show the wrappers; gateway CPU can.
            per_layer["bench.trace_overhead_ratio"]["value"] = (
                traced["detail"]["gateway_cpu_s"] / end_to_end["cpu_s"]["median"]
            )
        report["workloads"][name] = {
            "why": entry["why"],
            "correct": not problems,
            "problems": problems,
            "notes": notes,
            "ops_attempted": sum(run["attempted"] for run in untraced),
            "ops_failed": sum(run["failed"] for run in untraced),
            "result_digest": first["result_digest"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "traced_measured": traced["detail"]["measured"],
            "detail": untraced[0]["detail"],
        }
    # The tracer must not change what is simulated.
    plain = report["workloads"].get("steady_large_p4")
    watched = report["workloads"].get("steady_large_p4_traced")
    if plain and watched and not same_results(plain["detail"], watched["detail"]):
        watched["correct"] = False
        watched["problems"].append(
            "result digest differs from steady_large_p4 (the tracer changed "
            "the simulation)"
        )
    return report


def print_report(report: Dict[str, Any]) -> None:
    host = report["host"]
    print(
        f"host: {host['nproc']} cpu(s) ({host['affinity']} usable), python "
        f"{host['python']}, {host['host_spin_mops']:.1f} Mops calibration loop; "
        f"seed {report['seed']}, scale {report['scale']:g}, "
        f"{report['seconds']:g} s per run, {report['runs']} run(s) per workload"
    )
    print("host-time metrics are in reference-host seconds (bench/hostclock.py)")
    for name, body in report["workloads"].items():
        print()
        print(f"== {name}: {'ok' if body['correct'] else 'FAILED'}  "
              f"[{body['ops_failed']} failed of {body['ops_attempted']} ops, "
              f"digest {body['result_digest']}]")
        print(f"   {body['why']}")
        for problem in body["problems"]:
            print(f"   PROBLEM: {problem}")
        for note in body["notes"]:
            print(f"   note: {note}")
        live = body["detail"].get("live", {})
        if "transport" in body["detail"]:
            print(f"   traffic crossed {body['detail']['transport']}")
        print(f"   {'end-to-end metric':<28}{'median':>14} {'unit':<9}"
              f"{'min':>13}{'max':>13}  n  bound")
        for metric, cell in body["end_to_end"].items():
            note = ""
            if metric in LIVE_ONLY:
                count = live.get(metric.rsplit("_", 1)[0] + "_n")
                note = f"  (n={count} samples)"
                if f"{metric}_note" in live:
                    note += " " + live[f"{metric}_note"]
            print(f"   {metric:<28}{cell['median']:>14.6g} {cell['unit']:<9}"
                  f"{cell['min']:>13.6g}{cell['max']:>13.6g}  {cell['n']}  "
                  f"{cell['bound']:g}{note}")
        print(f"   {'per-layer metric (traced pass)':<44}{'value':>14} unit")
        measured = set(body["traced_measured"])  # layers off here read 0
        for metric, cell in body["per_layer"].items():
            if metric in measured:
                print(f"   {metric:<44}{cell['value']:>14.6g} {cell['unit']}")


def ledger(args: argparse.Namespace) -> int:
    if args.quick:
        seconds, scale, runs = 1.0, 0.1, 1
    else:
        seconds, scale, runs = float(load_spec()["run_seconds"]), args.scale, RUNS
    report = run_set(args.seed, seconds, scale, runs, log=_to_stderr)
    report["quick"] = bool(args.quick)
    print_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, indent=1) + "\n")
        print(f"\nreport written to {args.out}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


# ----------------------------------------------------------------------
# --selfcheck: the benchmark held to its own bounds
# ----------------------------------------------------------------------
def selfcheck(args: argparse.Namespace) -> int:
    from compare import worsening

    seconds = float(load_spec()["run_seconds"])
    first = run_set(args.seed, seconds, args.scale, RUNS, _to_stderr)
    second = run_set(args.seed, seconds, args.scale, RUNS, _to_stderr)
    other = run_set(args.seed + 1, seconds, args.scale, 1, _to_stderr)
    failures: List[str] = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        if not same_results(a["detail"], b["detail"]):
            failures.append(f"{name}: results differ between the two sets")
        for metric, cell in a["end_to_end"].items():
            twin = b["end_to_end"][metric]
            if metric in SIMULATED:
                if cell["samples"] != twin["samples"]:
                    failures.append(f"{name}: {metric} is not identical")
                continue
            moved = abs(worsening(cell, twin))
            verdict = "ok" if moved <= cell["bound"] else "OUTSIDE ITS BOUND"
            print(f"{name:<26}{metric:<26}{cell['median']:>12.6g}"
                  f"{twin['median']:>12.6g} {cell['unit']:<6}"
                  f"{moved:>8.1%} of bound {cell['bound']:g}  {verdict}")
            if moved > cell["bound"]:
                failures.append(f"{name}: {metric} moved {moved:.1%}")
    from runners import load_workload

    for name, body in other["workloads"].items():
        if not body["correct"]:
            failures.append(f"{name}: failed at seed {args.seed + 1}: {body['problems']}")
        counts = body["detail"].get("counts", {})
        for key in load_workload(name).get("expect_nonzero", ()):
            if not counts.get(key):
                failures.append(
                    f"{name}: degenerate at seed {args.seed + 1}: no {key}"
                )
    for report in (first, second):
        for name, body in report["workloads"].items():
            for problem in body["problems"]:
                failures.append(f"{name}: {problem}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(
                {"first": first, "second": second, "other_seed": other}, indent=1
            ) + "\n")
    for failure in failures:
        print(f"SELFCHECK FAILED: {failure}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="work to measure, in reference-host seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's simulated duration")
    parser.add_argument("--detail", action="store_true",
                        help="add a 'detail' key to the result line")
    parser.add_argument("--out", help="write the ledger report here")
    parser.add_argument("--quick", action="store_true",
                        help="scale 0.1, one run per workload, under 30 s")
    parser.add_argument("--compare", nargs="+", metavar="REPORT",
                        help="BASE.json NEW.json [BASE2 NEW2 ...]")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.workload:
        if args.seconds is None:
            args.seconds = float(load_spec()["run_seconds"])
        return run_one(args)
    sys.path.insert(0, str(ROOT / "src"))
    if args.compare:
        from compare import compare_files

        return compare_files(args.compare)
    if args.selftest:
        from selftest import main as selftest_main

        return selftest_main()
    if args.selfcheck:
        return selfcheck(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
