"""Checks of the benchmark itself (``python3 bench/run.py --selftest``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): these test the
measuring code, not the program.  The last check runs the whole ledger
at ``--quick`` size, so the selftest takes about half a minute.
"""

from __future__ import annotations

import json
import re
import traceback
from typing import Callable, List

import compare
import run as ledger
import runners
from spans import (
    LayerTotals,
    SpanRecorder,
    highest_percentile,
    merge_totals,
    percentile,
    spread,
    supported,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def check_self_time() -> None:
    """root 0..10 { a 1..4 { b 2..3 }, a 5..9 { c 6..8 { b 6.5..7 } } }"""
    rec = SpanRecorder()
    root = rec.add("root", -1, 0.0, 10.0)
    a1 = rec.add("a", root, 1.0, 4.0)
    rec.add("b", a1, 2.0, 3.0)
    a2 = rec.add("a", root, 5.0, 9.0)
    c = rec.add("c", a2, 6.0, 8.0)
    rec.add("b", c, 6.5, 7.0)
    totals = rec.totals()
    assert totals["root"] == LayerTotals(1, 10.0, 3.0), totals["root"]
    assert totals["a"] == LayerTotals(2, 7.0, 4.0), totals["a"]
    assert totals["c"] == LayerTotals(1, 2.0, 1.5), totals["c"]
    assert totals["b"] == LayerTotals(2, 1.5, 1.5), totals["b"]
    # Self times partition the root's duration.
    assert abs(sum(t.self_s for t in totals.values()) - 10.0) < 1e-12

    merged = {}
    merge_totals(merged, totals)
    merge_totals(merged, totals, scale=0.5)
    assert merged["a"] == LayerTotals(4, 10.5, 6.0), merged["a"]


def check_recorder_nesting() -> None:
    rec = SpanRecorder()
    calls = []
    inner = rec.wrap(lambda x: calls.append(x) or x * 2, "inner")
    outer = rec.wrap(lambda x: inner(x) + inner(x + 1), "outer")
    assert outer(3) == 14 and calls == [3, 4]
    totals = rec.totals()
    assert totals["outer"].count == 1 and totals["inner"].count == 2
    assert totals["outer"].self_s <= totals["outer"].total_s
    assert abs(
        totals["outer"].total_s
        - totals["outer"].self_s - totals["inner"].total_s
    ) < 1e-9
    failing = rec.wrap(lambda: 1 / 0, "failing")
    try:
        failing()
    except ZeroDivisionError:
        pass
    rec.clear()  # the span closed although the call raised
    assert len(rec) == 0


def check_percentile_rule() -> None:
    assert highest_percentile(9) is None
    assert highest_percentile(20) == 50.0
    assert highest_percentile(100) == 90.0
    assert highest_percentile(999) == 90.0
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(10000) == 99.9
    assert supported(1000, 99.0) and not supported(999, 99.0)
    assert supported(5616, 99.0) and not supported(5616, 99.9)
    assert percentile(list(range(101)), 99.0) == 99.0
    assert percentile([1.0, 3.0], 50.0) == 2.0
    assert abs(spread([10.0, 11.0, 12.0, 13.0]) - 2.5 / 11.5) < 1e-12


def _cell(samples, better="lower", bound=0.10):
    ordered = sorted(samples)
    return {
        "samples": list(samples), "better": better, "bound": bound,
        "median": ordered[len(ordered) // 2], "unit": "s",
        "n": len(samples), "quartiles": None,
    }


def check_verdicts() -> None:
    v = compare.verdict
    base = _cell([1.00, 1.01, 1.02])
    assert v(base, _cell([1.00, 1.01, 1.03])) == "same"
    assert v(base, _cell([0.90, 0.91, 0.92])) == "better"
    assert v(base, _cell([1.20, 1.21, 1.22])) == "worse"
    # within the bound although every run is slower: still "same"
    assert v(base, _cell([1.03, 1.04, 1.05])) == "same"
    # spread wider than the bound and the runs overlap: cannot tell
    noisy = _cell([0.8, 1.0, 1.3])
    assert v(noisy, _cell([0.9, 1.25, 1.4])) == "unresolved"
    # ... unless every new run beats every base run
    assert v(noisy, _cell([0.5, 0.6, 0.7])) == "better"
    # higher-is-better metrics flip
    up = _cell([0.90, 0.91, 0.92], better="higher", bound=0.05)
    assert v(up, _cell([0.95, 0.96, 0.97], better="higher", bound=0.05)) == "better"
    assert v(up, _cell([0.80, 0.81, 0.82], better="higher", bound=0.05)) == "worse"
    assert abs(compare.worsening(base, _cell([1.11, 1.11, 1.11])) - 0.1 / 1.01) < 1e-9
    # one run a side (--quick): equal is the same, anything else unknown
    assert v(_cell([1.0]), _cell([1.0])) == "same"
    assert v(_cell([1.0]), _cell([0.5])) == "unresolved"

    host = {"nproc": 2, "affinity": 2, "python": "3.11.7", "machine": "x86_64",
            "host_spin_mops": 20.0}
    assert compare.host_mismatch(host, dict(host)) is None
    assert compare.host_mismatch(host, dict(host, host_spin_mops=22.0)) is None
    assert "nproc" in compare.host_mismatch(host, dict(host, nproc=8))
    assert "spin" in compare.host_mismatch(host, dict(host, host_spin_mops=40.0))


def check_spec() -> None:
    spec = ledger.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names: List[str] = []
    for group in ("workloads", "end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == runners.workload_names()
    for entry in spec["workloads"]:
        assert entry["why"] == runners.load_workload(entry["name"])["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in spec["end_to_end"]
    )


def check_quick_run() -> None:
    """A --quick ledger: every declared name is measured somewhere, no
    stray name is emitted, every output check passes — including that
    each traced repetition equals its bare twin (wrappers pass through)."""
    spec = ledger.load_spec()
    report = ledger.run_set(seed=0, seconds=1.0, scale=0.1, runs=1,
                            log=lambda line: None)
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layers = {m["name"] for m in spec["per_layer"]}
    measured_layers = set()
    for name, body in report["workloads"].items():
        assert body["correct"], (name, body["problems"])
        assert body["ops_attempted"] >= 1 and body["ops_failed"] == 0, name
        emitted = set(body["end_to_end"])
        extra = set(ledger.LIVE_ONLY) if name == "live_loopback" else set()
        assert emitted == declared_e2e | extra, (name, emitted ^ declared_e2e)
        for metric, cell in body["end_to_end"].items():
            assert cell["median"] > 0, (name, metric)
        assert set(body["per_layer"]) == declared_layers, name
        measured_layers |= set(body["traced_measured"])
    assert measured_layers == declared_layers, measured_layers ^ declared_layers
    json.dumps(report)  # the report is plain JSON


CHECKS: List[Callable[[], None]] = [
    check_self_time,
    check_recorder_nesting,
    check_percentile_rule,
    check_verdicts,
    check_spec,
    check_quick_run,
]


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception:
            failed += 1
            print(f"FAIL {check.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {check.__name__}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} selftests passed")
    return 1 if failed else 0
