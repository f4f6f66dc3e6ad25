"""``bench/run.py --compare BASE.json NEW.json``: one row per workload and
end-to-end metric, with a verdict.

The verdict rule is the one in the choosing-metrics guide: a metric is
**worse** when NEW's median is worse than BASE's by more than the
metric's bound, **better** when every NEW run reads better than every
BASE run, and otherwise **same** — except that when the run-to-run
spread (inter-quartile distance over the base median) is wider than the
bound and the two sides' runs overlap, the honest answer is
**unresolved**: the benchmark cannot tell.  Every ratio is printed with
its base.

Reports from different hosts are refused: host time does not transfer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from spans import spread

#: Host-block fields that must be equal for two reports to compare.
HOST_KEYS = ("nproc", "affinity", "python", "machine")

#: Relative difference of the calibration-loop rate still called the
#: same host (on a shared core the fastest loop of one second varies
#: nearly this much; a host twice as fast is still told apart).
SPIN_TOLERANCE = 0.5


def worsening(base: Dict[str, Any], new: Dict[str, Any]) -> float:
    """How much worse NEW's median is than BASE's, as a share of BASE's
    (negative when NEW is better)."""
    if base["median"] == 0:
        return 0.0
    delta = (new["median"] - base["median"]) / abs(base["median"])
    return delta if base["better"] == "lower" else -delta


def verdict(base: Dict[str, Any], new: Dict[str, Any]) -> str:
    """better / same / worse / unresolved for one metric on one workload."""
    sign = 1.0 if base["better"] == "lower" else -1.0
    a = [sign * v for v in base["samples"]]
    b = [sign * v for v in new["samples"]]
    moved = worsening(base, new)
    if min(len(a), len(b)) < 2:  # a --quick report: no spread to judge by
        return "same" if a == b else "unresolved"
    if max(b) < min(a):
        return "better"
    overlap = not (min(b) > max(a))
    widest = max(spread(base["samples"]) or 0.0, spread(new["samples"]) or 0.0)
    if widest > base["bound"] and overlap:
        return "unresolved"
    return "worse" if moved > base["bound"] else "same"


def host_mismatch(base: Dict[str, Any], new: Dict[str, Any]) -> Optional[str]:
    for key in HOST_KEYS:
        if base.get(key) != new.get(key):
            return f"{key}: {base.get(key)!r} vs {new.get(key)!r}"
    a, b = base["host_spin_mops"], new["host_spin_mops"]
    if abs(a - b) / a > SPIN_TOLERANCE:
        return f"host_spin_mops: {a:.1f} vs {b:.1f}"
    return None


def _quartile_text(cell: Dict[str, Any]) -> str:
    qs = cell.get("quartiles")
    if not qs:
        return f"{cell['median']:.5g} (n={cell['n']})"
    return f"{cell['median']:.5g} [{qs[0]:.5g}..{qs[2]:.5g}]"


def compare_reports(base: Dict[str, Any], new: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for every (workload, end-to-end metric) both reports have."""
    rows = []
    for name, body in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            continue
        for metric, cell in body["end_to_end"].items():
            twin = other["end_to_end"].get(metric)
            if twin is None:
                continue
            rows.append({
                "workload": name,
                "metric": metric,
                "better": cell["better"],
                "unit": cell["unit"],
                "bound": cell["bound"],
                "base": _quartile_text(cell),
                "new": _quartile_text(twin),
                "worsening": worsening(cell, twin),
                "base_median": cell["median"],
                "verdict": verdict(cell, twin),
            })
        if body["result_digest"] != other["result_digest"]:
            rows.append({
                "workload": name, "metric": "result_digest", "better": "-",
                "unit": "", "bound": 0.0, "base": body["result_digest"],
                "new": other["result_digest"], "worsening": 0.0,
                "base_median": 0.0, "verdict": "behaviour changed",
            })
    return rows


def compare_files(paths: List[str]) -> int:
    """CLI body; exit 1 if anything is worse, 2 if a pair was refused."""
    if len(paths) % 2:
        print("--compare needs BASE NEW pairs")
        return 2
    status = 0
    for base_path, new_path in zip(paths[::2], paths[1::2]):
        with open(base_path) as fh:
            base = json.load(fh)
        with open(new_path) as fh:
            new = json.load(fh)
        print(f"{base_path} -> {new_path}")
        mismatch = host_mismatch(base["host"], new["host"])
        if mismatch:
            print(f"  refused: the reports were taken on different hosts ({mismatch})")
            status = 2
            continue
        for key in ("seed", "seconds", "scale"):
            if base.get(key) != new.get(key):
                print(f"  refused: {key} differs ({base.get(key)} vs {new.get(key)})")
                status = 2
                break
        else:
            print(f"  {'workload':<24}{'metric':<24}{'dir':<7}"
                  f"{'base median [q1..q3]':<32}{'new median [q1..q3]':<32}"
                  f"{'worse by (of base)':<26}{'bound':<7}verdict")
            for row in compare_reports(base, new):
                change = (
                    f"{row['worsening']:+.1%} of {row['base_median']:.5g} {row['unit']}"
                    if row["metric"] != "result_digest" else ""
                )
                print(f"  {row['workload']:<24}{row['metric']:<24}"
                      f"{row['better']:<7}{row['base']:<32}{row['new']:<32}"
                      f"{change:<26}{row['bound']:<7g}{row['verdict']}")
                if row["verdict"] in ("worse", "behaviour changed"):
                    status = max(status, 1)
    return status
