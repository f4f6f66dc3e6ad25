"""The prefix-cache & stream-sharing tier (repro.prefix).

Contracts under test, mirroring the acceptance gates of the ISSUE of
record (docs/CACHING.md):

* **config** — `PrefixPolicy` validates its ranges (its round trip is
  part of the config property in tests/test_scenario.py), and resolves its `strategy` / `batching` names
  against the registries at construction (a typo fails immediately
  with the full choice list);
* **planning** — the replication strategies produce deterministic plans
  that respect the capacity budget, and the tier warms its plan once,
  in plan order, through the engine;
* **merge math** — a chained session's contiguous delivery curve never
  dips below its playout line, proved both analytically (hypothesis
  sweeps over the splice geometry) and end-to-end (full simulations
  under strict invariants report zero chain underruns);
* **capacity figure** — on the committed overload scenario the tier's
  rejection rate is *strictly* below the no-tier baseline's, and two
  same-seed runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.cluster.client import ClientProfile
from repro.cluster.request import EPS_MB, Request, RequestState
from repro.core.admission import AdmissionOutcome
from repro.faults.invariants import InvariantViolation
from repro.obs import TraceKind
from repro.obs.tracer import Tracer
from repro.prefix import (
    BATCHING,
    ChainedSession,
    ChainPlan,
    PREFIX_STRATEGIES,
    PrefixCache,
    PrefixPolicy,
)
from repro.registry import UnknownKeyError
from repro.scenario import load_scenario
from repro.units import hours
from repro.workload import Video, VideoCatalog

TINY = SMALL_SYSTEM.scaled(n_videos=40, name="prefix-tiny")

OVERLOAD_SCENARIO = "scenarios/prefix_zipf_overload.json"
WINDOW_SCENARIO = "scenarios/prefix_batching_window.json"


def prefix_config(prefix=None, **overrides):
    defaults = dict(
        system=TINY,
        theta=0.0,
        placement="even",
        migration=MigrationPolicy.paper_default(),
        staging_fraction=0.3,
        duration=hours(2),
        warmup=600.0,
        load=1.2,
        seed=11,
        prefix=prefix,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def toy_catalog(lengths, view_bandwidth=1.0):
    return VideoCatalog(videos=tuple(
        Video(video_id=i, length=float(ln), view_bandwidth=view_bandwidth)
        for i, ln in enumerate(lengths)
    ))


def toy_tier(lengths, view_bandwidth=1.0, **policy):
    """The minimal duck-typed tier the planning strategies read."""
    return SimpleNamespace(
        catalog=toy_catalog(lengths, view_bandwidth),
        policy=PrefixPolicy(**policy),
    )


class TestPrefixPolicy:
    def test_unknown_strategy_names_choices(self):
        # One of the two UnknownKeyError regression sites: the
        # strategy lookup in PrefixPolicy.__post_init__.
        with pytest.raises(
            UnknownKeyError, match="prefix strategy 'zipf'.*popularity"
        ):
            PrefixPolicy(strategy="zipf")

    def test_unknown_batching_names_choices(self):
        # ...and the batching lookup, same site.
        with pytest.raises(
            UnknownKeyError, match="batching policy 'windw'.*window"
        ):
            PrefixPolicy(batching="windw")

    def test_registry_gets_raise_directly(self):
        with pytest.raises(UnknownKeyError, match="'lru'.*none, popularity"):
            PREFIX_STRATEGIES.get("lru")
        with pytest.raises(UnknownKeyError, match="'piggyback'.*patch"):
            BATCHING.get("piggyback")

    @pytest.mark.parametrize("bad", [
        dict(capacity_mb=-1.0),
        dict(prefix_seconds=0.0),
        dict(prefix_seconds=-5.0),
        dict(window_seconds=-1.0),
    ])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            PrefixPolicy(**bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="strategi"):
            PrefixPolicy.from_dict({"strategi": "popularity"})

    def test_simulation_config_roundtrip_with_prefix(self):
        config = prefix_config(PrefixPolicy(batching="patch"))
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.prefix == config.prefix

    def test_prefix_rejects_vcr_interactivity(self):
        with pytest.raises(ValueError, match="pause_hazard"):
            prefix_config(PrefixPolicy(), pause_hazard=0.01)

    def test_cli_list_prints_both_registries(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "prefix strategies" in out
        assert "batching policies" in out
        for name in ("popularity", "window", "patch"):
            assert name in out


class TestStrategies:
    def test_popularity_packs_hottest_titles_and_backfills(self):
        # prefixes [30, 30, 30, 10]; capacity 70 fits the two hottest
        # plus the short tail video 3, skipping (not stopping at) 2.
        tier = toy_tier(
            [100, 100, 100, 10],
            capacity_mb=70.0, prefix_seconds=30.0,
        )
        plan = PREFIX_STRATEGIES.get("popularity")(tier)
        assert plan == {0: 30.0, 1: 30.0, 3: 10.0}
        assert list(plan) == [0, 1, 3]  # warming order = rank order

    def test_popularity_respects_skew_direction(self):
        # Video 0 is hottest (id order is demand rank); the single slot
        # goes to it.
        tier = toy_tier([100, 100], capacity_mb=30.0, prefix_seconds=30.0)
        assert list(PREFIX_STRATEGIES.get("popularity")(tier)) == [0]

    def test_none_holds_nothing(self):
        tier = toy_tier([100, 100], strategy="none")
        assert PREFIX_STRATEGIES.get("none")(tier) == {}

    def test_plans_fit_capacity(self):
        for name in PREFIX_STRATEGIES.names():
            tier = toy_tier(
                [300, 200, 100, 50, 25], strategy=name,
                capacity_mb=120.0, prefix_seconds=60.0,
            )
            plan = PREFIX_STRATEGIES.get(name)(tier)
            assert sum(plan.values()) <= tier.policy.capacity_mb + EPS_MB


class TestPrefixCache:
    def test_lookup(self):
        cache = PrefixCache()
        assert cache.bytes_held == 0.0
        cache.entries[1] = 10.0
        assert cache.warmed_mb(1) == 10.0
        assert cache.warmed_mb(2) == 0.0
        assert cache.bytes_held == 10.0


def gate_tier(window_seconds=120.0):
    return SimpleNamespace(policy=PrefixPolicy(window_seconds=window_seconds))


def gate_request(view_bandwidth=2.0, buffer_capacity=1e9):
    return SimpleNamespace(
        view_bandwidth=view_bandwidth,
        client=SimpleNamespace(buffer_capacity=buffer_capacity),
    )


class TestBatchingPolicies:
    def test_window_pure_chain_when_prefix_covers_gap(self):
        plan = BATCHING.get("window")(
            gate_tier(), gate_request(), 10.0, 20.0
        )
        assert plan == ChainPlan(10.0, 20.0, 20.0, 0.0)

    def test_window_declines_uncovered_gap(self):
        assert BATCHING.get("window")(
            gate_tier(), gate_request(), 10.0, 19.0
        ) is None

    def test_patch_covers_the_remainder(self):
        plan = BATCHING.get("patch")(
            gate_tier(), gate_request(), 10.0, 5.0
        )
        assert plan == ChainPlan(10.0, 20.0, 5.0, 15.0)

    def test_patch_caps_prefix_at_gap(self):
        plan = BATCHING.get("patch")(
            gate_tier(), gate_request(), 2.0, 50.0
        )
        assert plan == ChainPlan(2.0, 4.0, 4.0, 0.0)

    @pytest.mark.parametrize("name", ["window", "patch"])
    def test_gap_outside_window_declines(self, name):
        batch = BATCHING.get(name)
        assert batch(gate_tier(30.0), gate_request(), 31.0, 1e9) is None
        assert batch(gate_tier(30.0), gate_request(), -1.0, 1e9) is None

    @pytest.mark.parametrize("name", ["window", "patch"])
    def test_small_client_buffer_declines(self, name):
        # The relay runs gap seconds early; a client that cannot stage
        # gap_mb must not be chained.
        request = gate_request(view_bandwidth=3.0, buffer_capacity=29.0)
        assert BATCHING.get(name)(
            gate_tier(), request, 10.0, 1e9
        ) is None

    def test_none_never_chains(self):
        assert BATCHING.get("none")(
            gate_tier(), gate_request(), 0.0, 1e9
        ) is None


def pure_chain(gap=10.0, vb=2.0, length=100.0, join=10.0):
    video = Video(video_id=0, length=length, view_bandwidth=vb)
    parent = SimpleNamespace(playback_start=join - gap)
    plan = ChainPlan(gap, vb * gap, vb * gap, 0.0)
    return ChainedSession(SimpleNamespace(), parent, video, join, plan)


def patch_child(rate, last_sync):
    """An active patch stream on server 1, nothing sent by *last_sync*."""
    child = Request(
        Video(video_id=0, length=1.0, view_bandwidth=1.0),
        ClientProfile(buffer_capacity=0.0), last_sync, request_id=0,
    )
    child.server_id = 1
    child.rate = rate
    return child


# -- the reference curves: ChainedSession.margin folds these three ------
def reference_patch_bytes(chain, now):
    """Megabits delivered by the catch-up patch stream by *now*."""
    plan = chain.plan
    if plan.patch_mb <= EPS_MB:
        return 0.0
    request = chain.child
    sent = request.bytes_sent
    if request.state is RequestState.ACTIVE and request.server_id is not None:
        sent = request.sent_at(max(now, request.last_sync))
    return min(plan.patch_mb, sent)


def reference_contiguous(chain, now):
    """Megabits available *contiguously from position 0* by *now*: the
    cached prefix streams at ``b_view`` from the join, the patch follows
    its server stream, and the feed frontier is the parent's playout
    position (frozen at ``severed_at`` if the parent was dropped)."""
    plan = chain.plan
    vb = chain.video.view_bandwidth
    elapsed = max(0.0, now - chain.join_time)
    covered = min(plan.prefix_mb, vb * elapsed)
    if covered + EPS_MB < plan.prefix_mb:
        return covered  # still draining the cached prefix
    if plan.patch_mb > EPS_MB:
        covered = plan.prefix_mb + reference_patch_bytes(chain, now)
        if covered + EPS_MB < plan.gap_mb:
            return covered  # patch still catching up
    horizon = now if chain.severed_at is None else min(now, chain.severed_at)
    frontier = vb * max(0.0, horizon - chain.parent.playback_start)
    return min(chain.video.size, max(plan.gap_mb, frontier))


def reference_margin(chain, now):
    """Contiguous delivery minus the child's playout by *now*, Mb."""
    video = chain.video
    played = video.view_bandwidth * max(0.0, now - chain.join_time)
    return reference_contiguous(chain, now) - min(video.size, played)


@st.composite
def chain_states(draw):
    """A chained session and an instant: any splice geometry (the gap
    may outlast the video), the child in any state the tier checks or
    meets, *now* anywhere from before the join to past the playout."""
    vb = draw(st.floats(0.5, 10.0))
    gap = draw(st.floats(0.0, 300.0))
    length = draw(st.floats(1.0, 600.0))
    gap_mb = vb * gap
    prefix_mb = gap_mb * draw(st.floats(0.0, 1.0))
    child_state = draw(st.sampled_from(
        ["pure", "streaming", "finished", "dropped"]
    ))
    patch_mb = 0.0 if child_state == "pure" else gap_mb - prefix_mb
    join = 50.0
    now = join + draw(st.floats(-60.0, gap + length + 60.0))
    child = patch_child(
        rate=vb * draw(st.floats(0.0, 3.0)),
        last_sync=now - draw(st.floats(-30.0, 120.0)),  # mostly before now
    )
    child.bytes_sent = patch_mb * draw(st.floats(0.0, 1.0))
    if child_state == "finished":
        child.bytes_sent = patch_mb
        child.mark_finished(child.last_sync)
    elif child_state == "dropped":
        child.mark_dropped(child.last_sync)
    video = Video(video_id=0, length=length, view_bandwidth=vb)
    chain = ChainedSession(
        child, SimpleNamespace(playback_start=join - gap), video, join,
        ChainPlan(gap, gap_mb, prefix_mb, patch_mb),
    )
    if draw(st.booleans()):
        chain.severed_at = join + draw(st.floats(0.0, gap + length))
    return chain, now


class TestChainedSessionCurves:
    @settings(max_examples=400, deadline=None)
    @given(chain_states())
    def test_margin_equals_the_reference_bit_for_bit(self, drawn):
        """The one-frame margin takes the reference curves' float
        operations in their order: equal values, down to a zero's sign."""
        chain, now = drawn
        fused, reference = chain.margin(now), reference_margin(chain, now)
        assert fused == reference
        assert math.copysign(1.0, fused) == math.copysign(1.0, reference)

    def test_pure_chain_margin_nonnegative_everywhere(self):
        chain = pure_chain()
        for t in np.linspace(10.0, 110.0, 200):
            assert chain.margin(float(t)) >= -1e-3

    def test_prefix_phase_tracks_playout_exactly(self):
        chain = pure_chain(gap=10.0, vb=2.0, join=10.0)
        # mid-prefix: delivered = played = vb * elapsed
        assert reference_contiguous(chain, 15.0) == pytest.approx(10.0)
        assert chain.margin(15.0) == pytest.approx(0.0)

    def test_feed_phase_runs_gap_ahead(self):
        chain = pure_chain(gap=10.0, vb=2.0, join=10.0)
        # prefix drained at t=20; feed frontier is the parent playout
        assert reference_contiguous(chain, 20.0) == pytest.approx(40.0)
        assert chain.margin(20.0) == pytest.approx(20.0)  # vb * gap

    def test_delivery_end_is_parent_playout_end(self):
        chain = pure_chain(gap=10.0, vb=2.0, length=100.0, join=10.0)
        assert chain.delivery_end == pytest.approx(100.0)
        assert reference_contiguous(chain, 100.0) == pytest.approx(200.0)

    def test_severed_feed_freezes_and_eventually_underruns(self):
        # Why the tier severs (and stops checking) dropped chains: the
        # frozen frontier is overtaken by playout after `gap` seconds.
        chain = pure_chain(gap=10.0, vb=2.0, join=10.0)
        chain.severed_at = 30.0
        assert chain.margin(35.0) >= 0.0          # still inside the slack
        assert chain.margin(45.0) < 0.0           # slack exhausted

    def test_patch_projection_between_syncs(self):
        child = patch_child(rate=5.0, last_sync=10.0)
        video = Video(video_id=0, length=100.0, view_bandwidth=2.0)
        parent = SimpleNamespace(playback_start=0.0)
        chain = ChainedSession(
            child, parent, video, 10.0, ChainPlan(10.0, 20.0, 5.0, 15.0)
        )
        # t=12: still draining the 5 Mb prefix (2 Mb/s from t=10)
        assert reference_contiguous(chain, 12.0) == pytest.approx(4.0)
        # t=13: prefix drained; patch projected at rate 5 from last_sync
        # has its full 15 Mb, so the feed frontier takes over
        assert reference_contiguous(chain, 13.0) == pytest.approx(26.0)
        assert chain.margin(13.0) == pytest.approx(20.0)

    @settings(max_examples=60, deadline=None)
    @given(
        vb=st.floats(0.5, 10.0),
        gap=st.floats(0.0, 300.0),
        prefix_frac=st.floats(0.0, 1.0),
        rate_slack=st.floats(0.0, 3.0),
        tail=st.floats(1.0, 3600.0),
    )
    def test_no_underrun_across_splice_geometries(
        self, vb, gap, prefix_frac, rate_slack, tail
    ):
        """The merge-math theorem (docs/CACHING.md): with the prefix at
        exactly view bandwidth, the patch at any minimum-flow rate
        (>= vb) and the feed on the parent's playout schedule, the
        contiguous delivery curve never dips below the playout line —
        for every gap / prefix split / patch rate / video length."""
        join = 50.0
        length = gap + tail
        gap_mb = vb * gap
        prefix_mb = gap_mb * prefix_frac
        patch_mb = gap_mb - prefix_mb
        child = patch_child(rate=vb * (1.0 + rate_slack), last_sync=join)
        video = Video(video_id=0, length=length, view_bandwidth=vb)
        parent = SimpleNamespace(playback_start=join - gap)
        chain = ChainedSession(
            child, parent, video, join,
            ChainPlan(gap, gap_mb, prefix_mb, patch_mb),
        )
        for t in np.linspace(join, join + length, 64):
            assert chain.margin(float(t)) >= -1e-3


class TestTierEndToEnd:
    def test_warming_fills_cache_through_engine(self, tmp_path):
        tracer = Tracer(capacity=100_000)
        policy = PrefixPolicy(capacity_mb=60_000.0, prefix_seconds=60.0,
                              window_seconds=120.0)
        sim = Simulation(prefix_config(policy), tracer=tracer)
        tier = sim.prefix_tier
        assert tier is not None
        plan = list(tier.plan)
        assert plan
        # Warms are engine events: nothing is held at build time.
        assert tier.cache.bytes_held == 0.0
        pending = [tier.stats()["pending_warm"]]
        assert pending == [len(plan)]
        while pending[-1]:
            sim.advance(sim.engine.now + 5.0)
            # Entries land one at a time, in plan order.
            held = list(tier.cache.entries)
            assert held == plan[:len(held)]
            pending.append(tier.stats()["pending_warm"])
            assert pending[-1] == len(plan) - len(held)
        assert pending == sorted(pending, reverse=True)
        assert tier.cache.bytes_held == pytest.approx(sum(tier.plan.values()))
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        warms = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "cache.warm"
        ]
        assert [warm["video"] for warm in warms] == plan
        # the first warm lands exactly one prefix / disk-throughput in
        first = warms[0]
        assert first["t"] == pytest.approx(first["seconds"])
        disk = [server.disk_throughput for server in sim.servers]
        assert first["seconds"] == pytest.approx(
            first["prefix_mb"] / (sum(disk) / len(disk))
        )

    def test_window_batching_pure_chains_no_underruns(self):
        policy = PrefixPolicy(
            strategy="popularity", batching="window",
            capacity_mb=60_000.0, prefix_seconds=120.0,
            window_seconds=120.0,
        )
        captured = []

        def grab(sim):
            tier = sim.prefix_tier
            original = tier._commit

            def commit(chain, now, patched):
                captured.append(chain)
                original(chain, now, patched)

            tier._commit = commit

        config = prefix_config(policy, invariants=True)
        result = Simulation(config, stage_hooks={"prefix": grab}).run()
        assert result.chained > 0
        assert result.patched == 0          # window never opens a patch
        assert result.chain_underruns == 0
        assert result.cache_hits > 0
        assert result.cache_megabits > 0.0
        # dense sweep of every healthy pure chain's delivery curve
        assert captured
        for chain in captured:
            if chain.severed_at is not None:
                continue
            end = min(chain.delivery_end, config.duration)
            for t in np.linspace(chain.join_time, end, 32):
                assert chain.margin(float(t)) >= -1e-3

    def test_patch_batching_truncated_streams(self):
        policy = PrefixPolicy(
            strategy="popularity", batching="patch",
            capacity_mb=60_000.0, prefix_seconds=60.0,
            window_seconds=180.0,
        )
        result = Simulation(prefix_config(policy, invariants=True)).run()
        assert result.chained > 0
        assert result.patched > 0           # gaps beyond the prefix
        assert result.chain_underruns == 0
        assert result.cache_hit_rate > 0.0
        # accounting identity: every arrival is decided exactly once,
        # chained admissions included
        assert result.arrivals == result.accepted + result.rejected
        assert result.chained <= result.accepted

    def test_rejected_patch_retries_with_full_size(self):
        # A request truncated to its catch-up patch and then rejected
        # must go back to the full transfer — `video` and the `size`
        # every transfer computation reads — so a retry sends it all.
        policy = PrefixPolicy(
            strategy="none", batching="patch", window_seconds=180.0,
        )
        sim = Simulation(prefix_config(
            policy, migration=MigrationPolicy.disabled(),
        ))
        engine, controller = sim.engine, sim.controller
        decided = []
        controller.on_decision.append(
            lambda outcome, request: decided.append(request)
        )
        full = sim.catalog[0]
        assert controller.submit(0)[1].accepted       # the leader
        engine.run_until(30.0)
        while controller.submit(0)[1].accepted:       # 30 s patches
            assert decided[-1].size < full.size
        assert sim.metrics.patched > 0
        rejected = decided[-1]
        assert rejected.video is full
        assert rejected.size == full.size

        engine.run_until(100.0)                       # patches drain
        rejected.prepare_retry(engine.now)
        assert controller.resubmit(rejected)[1].accepted
        engine.run_until(hours(2))
        assert rejected.state is RequestState.FINISHED
        assert rejected.bytes_sent == pytest.approx(full.size)

    def test_migration_drags_chained_children(self):
        # DRM coherence: parents migrate mid-run while chains ride the
        # playout relay; strict invariants must stay silent.
        # A deliberately small cache and tight window keep the cluster
        # saturated enough that admission still exercises DRM.
        policy = PrefixPolicy(
            strategy="popularity", batching="patch",
            capacity_mb=5_000.0, prefix_seconds=30.0,
            window_seconds=45.0,
        )
        result = Simulation(prefix_config(
            policy, load=1.8, invariants=True,
        )).run()
        assert result.chained > 0
        assert result.migrations > 0
        assert result.chain_underruns == 0

    def test_drop_cascade_under_faults(self):
        from repro.faults import CrashFaults, FaultPlan

        policy = PrefixPolicy(
            strategy="popularity", batching="patch",
            capacity_mb=60_000.0, prefix_seconds=90.0,
            window_seconds=180.0,
        )
        config = prefix_config(
            policy, theta=-0.5, load=1.3, invariants=True,
            faults=FaultPlan(
                crash=CrashFaults(mtbf=hours(0.4), mttr=hours(0.1)),
            ),
        )
        result = Simulation(config).run()
        assert result.faults_injected > 0
        assert result.chained > 0
        assert result.chain_underruns == 0   # severed chains don't count
        assert result.arrivals == result.accepted + result.rejected

    def test_parent_drop_severs_children_before_requeueing_parent(self):
        # prefix x retry x crash faults, driven by hand: a pure chain's
        # parent is lost with every holder down.  The tier hears the
        # drop first (severs the child, which is dropped for good — it
        # has no server stream to re-admit), then the retry queue
        # re-queues the parent.
        from repro.faults import CrashFaults, FaultPlan, RetryPolicy

        policy = PrefixPolicy(
            strategy="popularity", batching="window", window_seconds=120.0,
        )
        tracer = Tracer()
        sim = Simulation(prefix_config(
            policy, migration=MigrationPolicy.disabled(),
            retry=RetryPolicy(base_delay=30.0),
            # Injector on, but its first crash lies beyond the run.
            faults=FaultPlan(crash=CrashFaults(mtbf=1e12, mttr=1.0)),
        ), tracer=tracer)
        engine, controller, tier = sim.engine, sim.controller, sim.prefix_tier
        failover, queue = sim.failover, sim.retry_queue
        engine.run_until(600.0)                       # cache warmed
        parent, outcome = controller.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED
        engine.run_until(610.0)
        child, outcome = controller.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED_CHAINED
        assert child.server_id is None

        holders = list(sim.placement_result.placement.holders(0))
        for sid in holders:
            if sid != parent.server_id:
                failover.fail_server(sid)             # empty: nothing moves
        report = failover.fail_server(parent.server_id)
        assert report.dropped == [parent.request_id]
        assert parent.state is RequestState.DROPPED
        assert child.state is RequestState.DROPPED
        assert sim.metrics.dropped == 2
        assert tier.feeds_severed == 1
        assert list(queue._entries) == [parent.request_id]   # child is not
        lifecycle = [
            (r.kind, r.fields["request"], r.fields.get("server"))
            for r in tracer.records()
            if r.kind in (TraceKind.REQUEST_DROP, TraceKind.REQUEST_RETRY)
        ]
        assert lifecycle == [
            (TraceKind.REQUEST_DROP, parent.request_id, report.server_id),
            (TraceKind.REQUEST_DROP, child.request_id, None),
            (TraceKind.REQUEST_RETRY, parent.request_id, None),
        ]

        for sid in holders:
            failover.restore_server(sid)
        engine.run_until(700.0)                       # backoff <= 45 s
        assert parent.state is RequestState.ACTIVE
        assert parent.server_id in holders
        assert queue.pending == 0
        assert child.state is RequestState.DROPPED
        metrics = sim.metrics
        assert metrics.retries == 1
        assert metrics.arrivals == 3
        assert metrics.accepted + metrics.rejected == metrics.arrivals
        tier.check_invariants()
        assert tier.chain_underruns == 0

    def test_dropped_patch_child_retries_as_the_real_request(self):
        # prefix x retry x a server crash, driven by hand: a patch
        # child's own stream is lost with no relocation target, before
        # spare bandwidth can finish its patch.  The tier restores
        # the full video before the retry queue queues it, so the
        # resubmission sends the whole video and may lead a chain.
        from repro.faults import RetryPolicy

        policy = PrefixPolicy(
            strategy="none", batching="patch", window_seconds=180.0,
        )
        sim = Simulation(prefix_config(
            policy, migration=MigrationPolicy.disabled(),
            retry=RetryPolicy(base_delay=30.0),
        ))
        engine, controller, tier = sim.engine, sim.controller, sim.prefix_tier
        failover, queue = sim.failover, sim.retry_queue
        full = sim.catalog[0]
        parent, outcome = controller.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED
        engine.run_until(30.0)
        child, outcome = controller.submit(0)          # a 30 s patch
        assert outcome is AdmissionOutcome.ACCEPTED
        assert child.size < full.size
        assert child.server_id not in (None, parent.server_id)
        assert sim.metrics.patched == 1

        # No relocation target: every other holder down, and the
        # parent's server refusing new streams.
        holders = list(sim.placement_result.placement.holders(0))
        for sid in holders:
            if sid not in (parent.server_id, child.server_id):
                failover.fail_server(sid)
        sim.servers[parent.server_id].accepting = False
        report = failover.fail_server(child.server_id)
        assert report.dropped == [child.request_id]
        assert child.state is RequestState.DROPPED
        assert tier.feeds_severed == 1
        assert child.video is full and child.size == full.size
        assert child.request_id not in tier._chained_ids
        assert list(queue._entries) == [child.request_id]

        for sid in holders:
            failover.restore_server(sid)
        sim.servers[parent.server_id].accepting = True
        engine.run_until(100.0)                        # backoff <= 45 s
        assert child.state is RequestState.ACTIVE
        assert child.server_id in holders
        assert queue.pending == 0
        assert tier._leaders[0] is child               # the newest stream
        engine.run_until(hours(2))
        assert child.state is RequestState.FINISHED
        assert child.bytes_sent == pytest.approx(full.size)
        tier.check_invariants()
        assert tier.chain_underruns == 0

    def test_prefix_retry_and_crash_faults_together(self):
        from repro.faults import CrashFaults, FaultPlan, RetryPolicy

        policy = PrefixPolicy(
            strategy="popularity", batching="patch",
            capacity_mb=60_000.0, prefix_seconds=90.0,
            window_seconds=180.0,
        )
        result = Simulation(prefix_config(
            policy, theta=-0.5, load=1.3, invariants=True,
            retry=RetryPolicy(),
            faults=FaultPlan(
                crash=CrashFaults(mtbf=hours(0.4), mttr=hours(0.1)),
            ),
        )).run()
        assert result.faults_injected > 0
        assert result.chained > 0
        assert result.dropped > 0
        assert result.retries > 0
        assert result.chain_underruns == 0
        assert result.arrivals == result.accepted + result.rejected

    def test_same_seed_runs_byte_identical(self):
        policy = PrefixPolicy(
            strategy="popularity", batching="patch",
            capacity_mb=60_000.0, prefix_seconds=60.0,
            window_seconds=180.0,
        )
        config = prefix_config(policy)
        res_a = Simulation(config).run()
        res_b = Simulation(config).run()
        assert res_a == res_b  # provenance excluded from dataclass eq
        assert res_a.chained == res_b.chained > 0

    def test_tier_does_not_disturb_arrivals(self):
        # The tier must not touch the arrival RNG: the offered workload
        # with and without it is the same, or the capacity figure would
        # compare different experiments.
        config = prefix_config(PrefixPolicy(batching="window"))
        with_tier = Simulation(config).run()
        without = Simulation(dataclasses.replace(config, prefix=None)).run()
        assert with_tier.arrivals == without.arrivals

    @settings(max_examples=6, deadline=None)
    @given(
        theta=st.floats(-1.0, 1.0),
        prefix_seconds=st.floats(20.0, 240.0),
        window_seconds=st.floats(10.0, 240.0),
        batching=st.sampled_from(["window", "patch"]),
        seed=st.integers(0, 2**16),
    )
    def test_property_chained_delivery_never_underruns(
        self, theta, prefix_seconds, window_seconds, batching, seed
    ):
        """The ISSUE's hypothesis gate: across random window / prefix /
        theta draws, strict invariants (REPRO_INVARIANTS semantics)
        never observe a chained session behind its playout line."""
        policy = PrefixPolicy(
            strategy="popularity", batching=batching,
            capacity_mb=60_000.0, prefix_seconds=prefix_seconds,
            window_seconds=window_seconds,
        )
        config = prefix_config(
            policy, theta=theta, seed=seed,
            duration=hours(1), warmup=0.0, load=1.3,
            invariants=True,   # strict: an underrun raises
        )
        result = Simulation(config).run()
        assert result.chain_underruns == 0


class TestCapacityFigure:
    def test_committed_overload_scenario_strict_improvement(self):
        # The headline acceptance gate: on the committed >=100%-load
        # scenario the tier rejects strictly less than the baseline.
        scenario = load_scenario(OVERLOAD_SCENARIO)
        config = scenario.config
        assert config.load >= 1.0
        assert config.prefix is not None
        with_tier = Simulation(config).run()
        baseline = Simulation(dataclasses.replace(config, prefix=None)).run()
        assert with_tier.rejection_ratio < baseline.rejection_ratio
        assert with_tier.chained > 0
        assert with_tier.chain_underruns == 0

    def test_committed_window_scenario_runs_clean(self):
        scenario = load_scenario(WINDOW_SCENARIO)
        config = dataclasses.replace(scenario.config, invariants=True)
        result = Simulation(config).run()
        assert result.chained > 0
        assert result.patched == 0
        assert result.chain_underruns == 0

    @pytest.mark.parametrize("path", [OVERLOAD_SCENARIO, WINDOW_SCENARIO])
    def test_bookkeeping_holds_only_live_chains(self, path):
        # A parent's child list goes with its last chain, and a chained
        # id goes once its chain finishes or its pure child is dropped:
        # at the end of a committed run the tier keeps only what a
        # later event can still read.
        sim = Simulation(load_scenario(path).config)
        sim.run()
        tier = sim.prefix_tier
        assert tier.metrics.chained > 0
        assert all(tier._children.values())
        live = set(tier._chains) | set(tier._pending)
        assert tier._chained_ids <= live
        assert len(tier._chained_ids) < tier.metrics.chained
        # a pending playout-end event is for a parent with a merged
        # child it has yet to finish
        assert tier._finishing
        assert all(
            any(c.merged and not c.finished for c in tier._children[p])
            for p in tier._finishing
        )

    def test_experiment_baseline_strips_only_the_tier(self, monkeypatch):
        # The gate's capacity comparison: after the same-seed rerun,
        # the same config with the tier off.
        from repro.experiments import verify

        config = load_scenario(OVERLOAD_SCENARIO).config
        ran = []

        def run_simulation(config):
            ran.append(config)
            return Simulation(config).run()

        monkeypatch.setattr(verify, "run_simulation", run_simulation)
        leg = verify.run_virtual(config)
        assert ran == [config, dataclasses.replace(config, prefix=None)]
        assert leg["baseline"]["chained"] == 0
        assert leg["baseline"]["rejected"] > leg["result"]["rejected"]

    def test_figure_base_is_the_committed_scenario(self):
        # The figure declares its base in code; it must stay the config
        # the gate runs, bar what the sweep sets per cell.
        from repro.experiments.prefix import BASE

        committed = load_scenario(OVERLOAD_SCENARIO).config
        assert dataclasses.replace(
            committed, duration=BASE.duration, warmup=BASE.warmup,
            seed=BASE.seed,
        ) == BASE

    def test_result_row_is_json_stable(self):
        from repro.experiments.verify import result_row

        scenario = load_scenario(WINDOW_SCENARIO)
        row = result_row(Simulation(scenario.config).run())
        json.dumps(row)  # digestable
        assert {"rejection_ratio", "chained", "chain_underruns"} <= set(row)


ONE_MINUTE = dataclasses.replace(
    SMALL_SYSTEM, name="prefix-one-minute", server_bandwidths=(30.0,),
    disk_capacities=(4000.0,), n_videos=1, video_length_range=(60.0, 60.0),
    avg_copies=1.0,
)


def chain_finish_times(sim):
    """Times of the tier's chain-finish engine events, as they fire."""
    fired = []
    sim.engine.add_trace(
        lambda event: fired.append(event.time)
        if event.kind == "cache:chain_finish" else None
    )
    return fired


def one_parent_sim(invariants=False):
    """One 60 s video, no cache, patching within 50 s, arrivals stopped:
    streams run at exactly the view bandwidth (the client ingest cap),
    so a 40 s gap's patch merges 80 s in, after the parent's playout
    has ended at 60 s."""
    policy = PrefixPolicy(strategy="none", batching="patch",
                          window_seconds=50.0)
    sim = Simulation(prefix_config(
        policy, system=ONE_MINUTE, staging_fraction=1.0,
        client_receive_bandwidth=ONE_MINUTE.view_bandwidth,
        migration=MigrationPolicy.disabled(), warmup=0.0,
        invariants=invariants,
    ))
    return sim


class TestPerParentFinish:
    """Every child of one parent stops being fed at the parent's playout
    end, so the tier finishes them all in one engine event."""

    def test_one_event_per_parent_on_the_committed_scenario(self):
        sim = Simulation(load_scenario(OVERLOAD_SCENARIO).config)
        tier = sim.prefix_tier
        chains = []
        original = tier._commit

        def commit(chain, now, patched):
            chains.append(chain)
            original(chain, now, patched)

        tier._commit = commit
        fired = chain_finish_times(sim)
        sim.run()
        finished = [chain for chain in chains if chain.finished]
        parents = {chain.parent.request_id for chain in finished}
        assert len(fired) == len(parents)
        assert len(parents) < len(finished)   # siblings did share events
        for chain in finished:
            if chain.plan.patch_mb <= EPS_MB:  # pure: the tier finishes it
                assert chain.child.finish_time == pytest.approx(
                    chain.delivery_end
                )

    def test_a_late_patch_finishes_through_its_own_event(self):
        sim = one_parent_sim()
        engine, controller, tier = sim.engine, sim.controller, sim.prefix_tier
        fired = chain_finish_times(sim)
        parent, outcome = controller.submit(0)
        assert outcome is AdmissionOutcome.ACCEPTED
        pure, outcome = controller.submit(0)          # gap 0: no patch
        assert outcome is AdmissionOutcome.ACCEPTED_CHAINED
        engine.run_until(40.0)
        patch, outcome = controller.submit(0)
        assert outcome.accepted and patch.server_id is not None
        pure_chain = tier._chains[pure.request_id]
        patch_chain = tier._chains[patch.request_id]
        engine.run_until(hours(1))

        playout_end = pure_chain.delivery_end
        assert parent.finish_time <= playout_end < patch.finish_time
        # the parent's event finishes the merged child; the patch that
        # merges later finishes at its merge instant, in its own event
        assert fired == [playout_end, patch.finish_time]
        assert pure.finish_time == playout_end
        assert pure_chain.finished and patch_chain.finished
        assert patch_chain.margin(patch.finish_time) >= 0.0
        assert tier.chain_underruns == 0
        assert not tier._children and not tier._finishing

    def test_the_batched_finish_checks_every_child(self):
        sim = one_parent_sim(invariants=True)
        engine, controller, tier = sim.engine, sim.controller, sim.prefix_tier
        fired = chain_finish_times(sim)
        parent = controller.submit(0)[0]
        first, doctored, last = (
            tier._chains[controller.submit(0)[0].request_id] for _ in range(3)
        )
        # A patch that never streamed: past position 0 nothing arrives,
        # so at the playout end the child is a whole video behind.
        doctored.plan = ChainPlan(10.0, 30.0, 0.0, 30.0)
        assert doctored.margin(doctored.delivery_end) < -1e-3
        with pytest.raises(InvariantViolation) as caught:
            engine.run_until(hours(1))
        assert caught.value.invariant == "chain_no_underrun"
        assert caught.value.subject == f"request {doctored.child.request_id}"
        assert fired == [parent.playback_start + 60.0]
        assert first.finished and not last.finished   # sibling order

    @pytest.mark.parametrize("invariants, env", [
        (False, None), (True, None), (False, "1"),
    ], ids=["unchecked", "config", "env"])
    def test_a_planted_underrun_raises_exactly_when_the_run_is_checked(
        self, monkeypatch, invariants, env
    ):
        # One switch: the tier is strict iff the build has a checker,
        # whether config.invariants or REPRO_INVARIANTS turned it on.
        if env is None:
            monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
        else:
            monkeypatch.setenv("REPRO_INVARIANTS", env)
        sim = one_parent_sim(invariants=invariants)
        controller, tier = sim.controller, sim.prefix_tier
        checked = invariants or env is not None
        assert (sim.invariant_checker is not None) == checked
        controller.submit(0)
        planted = tier._chains[controller.submit(0)[0].request_id]
        planted.plan = ChainPlan(10.0, 30.0, 0.0, 30.0)   # never streams
        if checked:
            with pytest.raises(InvariantViolation) as caught:
                sim.engine.run_until(hours(1))
            assert caught.value.invariant == "chain_no_underrun"
        else:
            sim.engine.run_until(hours(1))
        assert tier.chain_underruns == 1


class TestOpsSurface:
    def test_gateway_refuses_chaining_batching(self):
        from repro.serve import ClusterGateway, ServeConfig

        config = prefix_config(PrefixPolicy(batching="window"))
        with pytest.raises(ValueError, match="batching"):
            ClusterGateway(config, ServeConfig(port=0))

    @pytest.mark.parametrize("batching", ["window", "patch"])
    def test_serve_refusal_is_the_constructors_rule(self, batching):
        # The gateway's row of the compatibility matrix, askable
        # without building a gateway (`repro verify` skips the live leg
        # on it); the constructor raises the same text.
        from repro.serve import ClusterGateway, ServeConfig
        from repro.simulation import refusal

        config = prefix_config(PrefixPolicy(batching=batching))
        why = refusal("serve", config)
        assert "cannot serve chained sessions" in why
        with pytest.raises(ValueError) as err:
            ClusterGateway(config, ServeConfig(port=0))
        assert str(err.value) == why

    def test_gateway_cache_stats_in_cache_only_mode(self):
        from repro.serve import ClusterGateway, ServeConfig
        from repro.serve.telemetry import snapshot

        config = prefix_config(PrefixPolicy(batching="none"))
        gateway = ClusterGateway(config, ServeConfig(port=0))
        stats = snapshot(gateway)["cache"]
        assert stats == gateway.bridge.sim.prefix_tier.stats()
        assert stats["batching"] == "none"
        assert {"hit_rate", "bytes_held_mb", "chained_active"} <= set(stats)

    def test_gateway_without_tier_reports_no_cache(self):
        from repro.serve import ClusterGateway, ServeConfig
        from repro.serve.telemetry import snapshot

        gateway = ClusterGateway(prefix_config(None), ServeConfig(port=0))
        assert snapshot(gateway)["cache"] is None

    def test_top_renders_cache_line(self):
        from repro.serve.top import render_top

        sample = {
            "virtual_now": 10.0, "uptime_s": 10.0,
            "cache": {
                "hits": 7, "misses": 3, "hit_rate": 0.7,
                "bytes_held_mb": 1234.0, "chained_active": 2, "chained": 9,
            },
        }
        frame = render_top(sample)
        assert "cache" in frame
        assert "70.00%" in frame
        assert "1234 Mb" in frame
        assert "2 live / 9 total" in frame

    def test_tier_stats_shape(self):
        sim = Simulation(prefix_config(PrefixPolicy()))
        stats = sim.prefix_tier.stats()
        assert stats["strategy"] == "popularity"
        assert stats["capacity_mb"] == pytest.approx(50_000.0)
        for key in ("hits", "misses", "chained", "patched",
                    "underruns", "severed", "pending_warm"):
            assert isinstance(stats[key], int)
