"""Tests for the gate, ``repro verify`` (repro.experiments.verify).

Three layers:

* the plan — which legs and checks every committed scenario gets is a
  pinned table, so a scenario cannot silently lose its live leg;
* the gate itself — every committed scenario verifies clean;
* the checks — each problem string is made to fire on a doctored copy
  of a clean report, and a genuinely broken scenario exits 1.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import verify as verify_mod
from repro.experiments.verify import (
    LIVE_MAX_DURATION,
    audit,
    plan,
    verify,
)
from repro.faults.invariants import InvariantViolation
from repro.scenario import Scenario, load_scenario, save_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

LIVE = ["virtual", "live"]
VIRTUAL_ONLY = ["virtual"]

#: scenario file stem -> (legs, checks, fragment of the skipped reason).
PLAN = {
    "serve_loopback": (LIVE, ["determinism", "live", "parity"], None),
    "chaos_serve": (LIVE, ["determinism", "live", "faults"], None),
    "elastic_flash_crowd": (
        LIVE, ["determinism", "live", "parity", "elastic"], None,
    ),
    "prefix_zipf_overload": (
        VIRTUAL_ONLY, ["determinism", "prefix"], "chained sessions",
    ),
    "prefix_batching_window": (
        VIRTUAL_ONLY, ["determinism", "prefix"], "chained sessions",
    ),
    "p4_small": (VIRTUAL_ONLY, ["determinism"], "duration 7200 s"),
    "bursty_primetime": (VIRTUAL_ONLY, ["determinism"], "duration 7200 s"),
    "predictive_vcr": (VIRTUAL_ONLY, ["determinism"], "duration 7200 s"),
    "client_mix_replication": (
        VIRTUAL_ONLY, ["determinism"], "duration 7200 s",
    ),
    "chaos_retry": (VIRTUAL_ONLY, ["determinism"], "duration 5400 s"),
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """``clean(stem)``: the verify report of one committed scenario —
    run once, shared by every test (doctoring tests deep-copy it)."""
    postmortem = tmp_path_factory.mktemp("verify") / "postmortem.jsonl"

    @functools.lru_cache(maxsize=None)
    def report(stem: str) -> dict:
        return verify(
            load_scenario(SCENARIOS / f"{stem}.json"), postmortem=postmortem
        )

    return report


class TestPlan:
    def test_every_committed_scenario_is_in_the_table(self):
        assert {p.stem for p in SCENARIOS.glob("*.json")} == set(PLAN)

    def test_ci_matrix_lists_every_committed_scenario(self):
        workflow = SCENARIOS.parent / ".github" / "workflows" / "ci.yml"
        matrix = re.findall(r"^ {10}- (\w+)$", workflow.read_text(), re.M)
        assert sorted(matrix) == sorted(PLAN)

    @pytest.mark.parametrize("stem", sorted(PLAN))
    def test_legs_and_checks_are_pinned(self, stem):
        legs, checks, reason = PLAN[stem]
        planned = plan(load_scenario(SCENARIOS / f"{stem}.json").config)
        assert planned["legs"] == legs
        assert planned["checks"] == checks
        if reason is None:
            assert planned["skipped"] == {}
        else:
            assert reason in planned["skipped"]["live"]

    def test_duration_limit_is_inclusive(self):
        config = load_scenario(SCENARIOS / "serve_loopback.json").config
        at = dataclasses.replace(config, duration=LIVE_MAX_DURATION)
        over = dataclasses.replace(config, duration=LIVE_MAX_DURATION + 1)
        assert plan(at)["legs"] == LIVE
        assert plan(over)["legs"] == VIRTUAL_ONLY


class TestCommittedScenarios:
    @pytest.mark.parametrize("stem", sorted(PLAN))
    def test_verifies_clean(self, clean, stem):
        report = clean(stem)
        assert report["failures"] == []
        legs, checks, _ = PLAN[stem]
        assert report["legs"] == legs and report["checks"] == checks
        assert len(report.get("live", [])) == (
            0 if legs == VIRTUAL_ONLY else 2 if "faults" in checks else 1
        )
        json.dumps(report)  # the CI artifact

    def test_parity_digests_agree(self, clean):
        for stem in ("serve_loopback", "elastic_flash_crowd"):
            digests = clean(stem)["digests"]
            assert digests["live"] == [digests["virtual"]]

    def test_fault_runs_agree_with_each_other_not_the_replay(self, clean):
        digests = clean("chaos_serve")["digests"]
        assert digests["live"][0] == digests["live"][1]
        # Resilient clients re-request; the replay has no such arrivals.
        assert digests["live"][0] != digests["virtual"]


def _set(path, value):
    """A doctoring step: report[path[0]][path[1]]... = value."""
    def apply(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return apply


def _member_state(side, state):
    def apply(report):
        membership = (
            report["virtual"]["membership"] if side == "virtual"
            else report["live"][0]["summary"]["serve"]["membership"]
        )
        membership["servers"][sorted(membership["servers"])[0]] = state
    return apply


def _forget_server_task(report):
    tasks = report["live"][0]["summary"]["serve"]["supervisor"]["tasks"]
    del tasks[next(n for n in tasks if n.startswith("serve.server."))]


#: (scenario, doctoring step, fragment of the problem string it must
#: produce).  One row per problem string in the checks.
DOCTORED = [
    ("p4_small", _set(("virtual", "same_seed_equal"), False),
     "same-seed results diverged: ['utilization="),
    ("serve_loopback", _set(("live", 0, "invariant_violation"), "[capacity]"),
     "live: invariant violation: [capacity]"),
    ("serve_loopback", _set(("live", 0, "parity_clamps"), 2),
     "2 parity clamp(s)"),
    ("serve_loopback", _set(("live", 0, "leaked_tasks"), ["serve.policy"]),
     "leaked asyncio tasks after stop(): ['serve.policy']"),
    ("serve_loopback", _set(("live", 0, "digest"), "0" * 12),
     "decision digests diverged: virtual"),
    ("serve_loopback", _set(("live", 0, "load", "underruns"), 3),
     "3 client-side underrun(s)"),
    ("serve_loopback", _set(("live", 0, "load", "errors"), 1),
     "1 errored + 0 lost session(s)"),
    ("serve_loopback", _set(("live", 0, "load", "lost"), 4),
     "0 errored + 4 lost session(s)"),
    ("chaos_serve", _set(("live", 1, "chaos", "failures"), []),
     "live run 2: no server crash fired"),
    ("chaos_serve", _set(("live", 0, "chaos", "live_kills"), 0),
     "live run 1: no live gateway task kill"),
    ("chaos_serve", _set(("live", 0, "reconciliation", "unmatched"), [7]),
     "unaccounted failover-affected request ids: [7]"),
    ("chaos_serve", _set(("digests", "live"), ["aaa", "bbb"]),
     "decision digests diverged across same-seed runs"),
    ("chaos_serve", _set(("live", 1, "parity_clamps"), 1),
     "live run 2: 1 parity clamp(s)"),
    ("elastic_flash_crowd", _set(("virtual", "policy", "underruns"), 2),
     "virtual: 2 underrun(s) — a drain or warm starved a stream"),
    ("elastic_flash_crowd", _set(("live", 0, "summary", "policy", "underruns"), 1),
     "live: 1 underrun(s)"),
    ("elastic_flash_crowd", _set(("virtual", "membership", "epoch"), 0),
     "virtual: membership epoch never advanced"),
    ("elastic_flash_crowd", _member_state("live", "draining"),
     "live: servers stuck mid-lifecycle at the horizon"),
    ("elastic_flash_crowd", _member_state("virtual", "warming"),
     "membership ledgers diverged between the virtual and live runs"),
    ("elastic_flash_crowd", _set(("virtual", "scaler", "scale_outs"), 0),
     "virtual: no scale-out executed"),
    ("elastic_flash_crowd", _set(("virtual", "scaler", "scale_ins"), 0),
     "virtual: no scale-in executed"),
    ("elastic_flash_crowd", _forget_server_task,
     "no serve.server task was ever spawned for member(s)"),
    ("prefix_zipf_overload",
     _set(("virtual", "baseline", "rejection_ratio"), 0.0),
     "tier did not beat the baseline: rejection 0.0000 (with) vs 0.0000"),
    ("prefix_zipf_overload",
     _set(("virtual", "result", "chained"), 0),
     "no session was ever chained"),
    ("prefix_zipf_overload",
     _set(("virtual", "result", "chain_underruns"), 5),
     "5 chained-session underrun(s)"),
]


class TestEveryCheckCanFail:
    @pytest.mark.parametrize(
        "stem, doctor, fragment", DOCTORED,
        ids=[f"{stem}-{fragment[:40]}" for stem, _, fragment in DOCTORED],
    )
    def test_doctored_report_fires_the_problem(
        self, clean, stem, doctor, fragment
    ):
        report = copy.deepcopy(clean(stem))
        doctor(report)
        problems = audit(report)
        assert any(fragment in problem for problem in problems), problems

    def test_a_check_not_planned_is_not_run(self, clean):
        # The doctored field belongs to the elastic check, which a
        # scenario without an elastic block does not get.
        report = copy.deepcopy(clean("serve_loopback"))
        report["live"][0]["summary"]["policy"]["underruns"] = 9
        assert audit(report) == []

    def test_virtual_invariant_violation_fails_and_skips_the_live_leg(
        self, monkeypatch
    ):
        def explode(config):
            raise InvariantViolation("capacity", "server 1", "over", 3.0, [])

        monkeypatch.setattr(verify_mod, "run_simulation", explode)
        monkeypatch.setattr(
            verify_mod, "run_live",
            lambda *a, **k: pytest.fail("live leg must not run"),
        )
        report = verify(load_scenario(SCENARIOS / "serve_loopback.json"))
        assert report["legs"] == VIRTUAL_ONLY
        assert "invariant violation" in report["skipped"]["live"]
        assert len(report["failures"]) == 1
        assert "virtual: invariant violation: [capacity] server 1" in (
            report["failures"][0]
        )


class TestCli:
    def test_clean_scenario_exits_zero_and_writes_the_report(
        self, tmp_path, capsys
    ):
        out = tmp_path / "verify.json"
        code = main([
            "verify", str(SCENARIOS / "p4_small.json"), "--out", str(out),
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(out.read_text())
        assert printed["scenario"] == "p4-small"
        assert printed["failures"] == []
        assert "duration 7200 s" in printed["skipped"]["live"]

    def test_tier_that_does_not_beat_its_baseline_exits_one(
        self, tmp_path, capsys
    ):
        # At 30 % offered load nothing is rejected with or without the
        # tier, so the strict inequality cannot hold.
        committed = load_scenario(SCENARIOS / "prefix_zipf_overload.json")
        idle = dataclasses.replace(committed.config, load=0.3)
        path = tmp_path / "idle_prefix.json"
        save_scenario(Scenario("idle-prefix", "", idle), path)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert any(
            "tier did not beat the baseline" in f for f in report["failures"]
        )
        assert "VERIFY FAILURE: tier did not beat" in captured.err

    def test_doctored_digest_exits_one(self, monkeypatch, capsys):
        clean = verify_mod.run_virtual

        def one_digest_off(config):
            leg = clean(config)
            leg["same_seed_equal"] = False
            return leg

        monkeypatch.setattr(verify_mod, "run_virtual", one_digest_off)
        assert main(["verify", str(SCENARIOS / "p4_small.json")]) == 1
        assert "VERIFY FAILURE: same-seed results diverged" in (
            capsys.readouterr().err
        )

    def test_scenario_argument_is_required(self):
        with pytest.raises(SystemExit, match="scenario FILE is required"):
            main(["verify"])
