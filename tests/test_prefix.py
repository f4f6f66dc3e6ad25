"""The prefix-cache & stream-sharing tier (repro.prefix).

Contracts under test, mirroring the acceptance gates of the ISSUE of
record (docs/CACHING.md):

* **config** — `PrefixPolicy` round-trips through to_dict/from_dict,
  validates its ranges, and resolves its `strategy` / `batching` names
  against the registries at construction (a typo fails immediately
  with the full choice list);
* **planning** — the replication strategies produce deterministic plans
  that respect the capacity budget, and the cache's retarget/commit
  protocol survives plan churn (stale warms are ignored);
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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SMALL_SYSTEM, MigrationPolicy, Simulation, SimulationConfig
from repro.cluster.client import ClientProfile
from repro.cluster.request import (
    EPS_MB, Request, RequestState, reset_request_ids,
)
from repro.core.admission import AdmissionOutcome
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
from repro.workload import Video, VideoCatalog, ZipfPopularity
from repro.workload.zipf import popularity_ranks

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


def run_fresh(config, tracer=None):
    reset_request_ids()  # request ids are process-global state
    return Simulation(config, tracer=tracer).run()


def toy_catalog(lengths, view_bandwidth=1.0):
    return VideoCatalog(videos=tuple(
        Video(video_id=i, length=float(ln), view_bandwidth=view_bandwidth)
        for i, ln in enumerate(lengths)
    ))


def toy_tier(lengths, theta=0.0, view_bandwidth=1.0, **policy):
    """The minimal duck-typed tier the planning strategies read."""
    catalog = toy_catalog(lengths, view_bandwidth)
    return SimpleNamespace(
        catalog=catalog,
        popularity=ZipfPopularity(len(catalog), theta),
        policy=PrefixPolicy(**policy),
        placement=None,
        placement_policy=None,
    )


class TestPrefixPolicy:
    def test_roundtrip(self):
        policy = PrefixPolicy(
            strategy="uniform", batching="patch",
            capacity_mb=123.5, prefix_seconds=45.0, window_seconds=60.0,
        )
        assert PrefixPolicy.from_dict(policy.to_dict()) == policy

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
        for name in ("popularity", "uniform", "window", "patch"):
            assert name in out


class TestStrategies:
    def test_popularity_packs_hottest_first_and_backfills(self):
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
        # theta < 1 means video 0 is hottest; the single slot goes to it.
        tier = toy_tier([100, 100], theta=0.0,
                        capacity_mb=30.0, prefix_seconds=30.0)
        assert list(PREFIX_STRATEGIES.get("popularity")(tier)) == [0]

    def test_uniform_splits_capacity(self):
        tier = toy_tier(
            [100, 100, 100, 5],
            strategy="uniform", capacity_mb=40.0, prefix_seconds=30.0,
        )
        plan = PREFIX_STRATEGIES.get("uniform")(tier)
        # per-video share is 10 Mb, clipped to the 5 Mb whole of video 3
        assert plan == {0: 10.0, 1: 10.0, 2: 10.0, 3: 5.0}

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

    def test_ranking_matches_popularity_ranks_helper(self):
        # The satellite: the cache's notion of "popular" is the shared
        # workload helper, not a private recomputation.
        from repro.prefix.cache import hottest_first

        tier = toy_tier(list(range(10, 110, 10)), theta=-0.5)
        probs = popularity_ranks(10, -0.5)
        expected = [int(v) for v in np.argsort(-probs, kind="stable")]
        assert hottest_first(tier) == expected


class TestPrefixCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity_mb"):
            PrefixCache(-1.0)

    def test_retarget_returns_pending_in_plan_order(self):
        cache = PrefixCache(100.0)
        pending = cache.retarget({3: 20.0, 1: 10.0})
        assert pending == [(3, 20.0), (1, 10.0)]
        assert cache.bytes_held == 0.0  # nothing warmed yet

    def test_commit_and_lookup(self):
        cache = PrefixCache(100.0)
        cache.retarget({1: 10.0})
        assert cache.commit(1, 10.0) is True
        assert cache.warmed_mb(1) == 10.0
        assert cache.warmed_mb(2) == 0.0
        assert cache.bytes_held == 10.0

    def test_stale_commit_ignored(self):
        cache = PrefixCache(100.0)
        cache.retarget({1: 10.0})
        cache.retarget({2: 10.0})  # plan churn before the warm lands
        assert cache.commit(1, 10.0) is False
        assert cache.warmed_mb(1) == 0.0

    def test_retarget_evicts_dropped_and_resized_entries(self):
        cache = PrefixCache(100.0)
        cache.retarget({1: 10.0, 2: 20.0})
        cache.commit(1, 10.0)
        cache.commit(2, 20.0)
        pending = cache.retarget({2: 25.0, 3: 5.0})
        assert cache.warmed_mb(1) == 0.0      # dropped: evicted instantly
        assert cache.warmed_mb(2) == 0.0      # resized: must re-warm
        assert pending == [(2, 25.0), (3, 5.0)]

    def test_retarget_keeps_already_warmed_entries(self):
        cache = PrefixCache(100.0)
        cache.retarget({1: 10.0})
        cache.commit(1, 10.0)
        assert cache.retarget({1: 10.0, 2: 5.0}) == [(2, 5.0)]
        assert cache.warmed_mb(1) == 10.0

    def test_oversubscribed_plan_rejected(self):
        cache = PrefixCache(25.0)
        with pytest.raises(ValueError, match="capacity"):
            cache.retarget({1: 20.0, 2: 10.0})


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
            gate_tier(), gate_request(), None, 10.0, 20.0, 0.0
        )
        assert plan == ChainPlan(10.0, 20.0, 20.0, 0.0)

    def test_window_declines_uncovered_gap(self):
        assert BATCHING.get("window")(
            gate_tier(), gate_request(), None, 10.0, 19.0, 0.0
        ) is None

    def test_patch_covers_the_remainder(self):
        plan = BATCHING.get("patch")(
            gate_tier(), gate_request(), None, 10.0, 5.0, 0.0
        )
        assert plan == ChainPlan(10.0, 20.0, 5.0, 15.0)

    def test_patch_caps_prefix_at_gap(self):
        plan = BATCHING.get("patch")(
            gate_tier(), gate_request(), None, 2.0, 50.0, 0.0
        )
        assert plan == ChainPlan(2.0, 4.0, 4.0, 0.0)

    @pytest.mark.parametrize("name", ["window", "patch"])
    def test_gap_outside_window_declines(self, name):
        batch = BATCHING.get(name)
        assert batch(gate_tier(30.0), gate_request(), None,
                     31.0, 1e9, 0.0) is None
        assert batch(gate_tier(30.0), gate_request(), None,
                     -1.0, 1e9, 0.0) is None

    @pytest.mark.parametrize("name", ["window", "patch"])
    def test_small_client_buffer_declines(self, name):
        # The relay runs gap seconds early; a client that cannot stage
        # gap_mb must not be chained.
        request = gate_request(view_bandwidth=3.0, buffer_capacity=29.0)
        assert BATCHING.get(name)(
            gate_tier(), request, None, 10.0, 1e9, 0.0
        ) is None

    def test_none_never_chains(self):
        assert BATCHING.get("none")(
            gate_tier(), gate_request(), None, 0.0, 1e9, 0.0
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
        ClientProfile(buffer_capacity=0.0), last_sync,
    )
    child.server_id = 1
    child.rate = rate
    return child


class TestChainedSessionCurves:
    def test_pure_chain_margin_nonnegative_everywhere(self):
        chain = pure_chain()
        for t in np.linspace(10.0, 110.0, 200):
            assert chain.margin(float(t)) >= -1e-3

    def test_prefix_phase_tracks_playout_exactly(self):
        chain = pure_chain(gap=10.0, vb=2.0, join=10.0)
        # mid-prefix: delivered = played = vb * elapsed
        assert chain.contiguous_delivered(15.0) == pytest.approx(10.0)
        assert chain.margin(15.0) == pytest.approx(0.0)

    def test_feed_phase_runs_gap_ahead(self):
        chain = pure_chain(gap=10.0, vb=2.0, join=10.0)
        # prefix drained at t=20; feed frontier is the parent playout
        assert chain.contiguous_delivered(20.0) == pytest.approx(40.0)
        assert chain.margin(20.0) == pytest.approx(20.0)  # vb * gap

    def test_delivery_end_is_parent_playout_end(self):
        chain = pure_chain(gap=10.0, vb=2.0, length=100.0, join=10.0)
        assert chain.delivery_end == pytest.approx(100.0)
        assert chain.contiguous_delivered(100.0) == pytest.approx(200.0)

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
        assert chain.contiguous_delivered(12.0) == pytest.approx(4.0)
        # t=13: prefix drained; patch projected at rate 5 from last_sync
        # has its full 15 Mb, so the feed frontier takes over
        assert chain.contiguous_delivered(13.0) == pytest.approx(26.0)
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
        reset_request_ids()
        tracer = Tracer(capacity=100_000)
        policy = PrefixPolicy(capacity_mb=60_000.0, prefix_seconds=60.0,
                              window_seconds=120.0)
        sim = Simulation(prefix_config(policy), tracer=tracer)
        tier = sim.prefix_tier
        assert tier is not None
        assert tier.cache.bytes_held == 0.0   # warms are engine events
        assert tier._warming
        sim.run()
        plan_total = sum(tier.cache._target.values())
        assert tier.cache.bytes_held == pytest.approx(plan_total)
        assert tier.stats()["pending_warm"] == 0
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        warms = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "cache.warm"
        ]
        assert len(warms) == len(tier.cache.entries)
        # the first warm lands exactly one prefix / disk-throughput in
        first = warms[0]
        assert first["t"] == pytest.approx(first["seconds"])
        assert first["seconds"] == pytest.approx(
            first["prefix_mb"] / tier._disk_throughput()
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

        reset_request_ids()
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
        result = run_fresh(prefix_config(policy, invariants=True))
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
        reset_request_ids()
        sim = Simulation(prefix_config(
            policy, migration=MigrationPolicy.disabled(),
        ))
        sim._arrivals.stop()
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
        result = run_fresh(prefix_config(
            policy, load=1.8, invariants=True,
        ))
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
        result = run_fresh(config)
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
        reset_request_ids()
        sim = Simulation(prefix_config(
            policy, migration=MigrationPolicy.disabled(),
            retry=RetryPolicy(base_delay=30.0, jitter=0.0),
            # Injector on, but its first crash lies beyond the run.
            faults=FaultPlan(crash=CrashFaults(mtbf=1e12, mttr=1.0)),
        ), tracer=tracer)
        sim._arrivals.stop()
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
        engine.run_until(700.0)                       # backoff was 30 s
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

    def test_prefix_retry_and_crash_faults_together(self):
        from repro.faults import CrashFaults, FaultPlan, RetryPolicy

        policy = PrefixPolicy(
            strategy="popularity", batching="patch",
            capacity_mb=60_000.0, prefix_seconds=90.0,
            window_seconds=180.0,
        )
        result = run_fresh(prefix_config(
            policy, theta=-0.5, load=1.3, invariants=True,
            retry=RetryPolicy(),
            faults=FaultPlan(
                crash=CrashFaults(mtbf=hours(0.4), mttr=hours(0.1)),
            ),
        ))
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
        res_a = run_fresh(config)
        res_b = run_fresh(config)
        assert res_a == res_b  # provenance excluded from dataclass eq
        assert res_a.chained == res_b.chained > 0

    def test_tier_does_not_disturb_arrivals(self):
        # The tier must not touch the arrival RNG: the offered workload
        # with and without it is the same, or the capacity figure would
        # compare different experiments.
        config = prefix_config(PrefixPolicy(batching="window"))
        with_tier = run_fresh(config)
        without = run_fresh(dataclasses.replace(config, prefix=None))
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
        result = run_fresh(config)
        assert result.chain_underruns == 0


class TestCapacityFigure:
    def test_committed_overload_scenario_strict_improvement(self):
        # The headline acceptance gate: on the committed >=100%-load
        # scenario the tier rejects strictly less than the baseline.
        scenario = load_scenario(OVERLOAD_SCENARIO)
        config = scenario.config
        assert config.load >= 1.0
        assert config.prefix is not None
        with_tier = run_fresh(config)
        baseline = run_fresh(dataclasses.replace(config, prefix=None))
        assert with_tier.rejection_ratio < baseline.rejection_ratio
        assert with_tier.chained > 0
        assert with_tier.chain_underruns == 0

    def test_committed_window_scenario_runs_clean(self):
        scenario = load_scenario(WINDOW_SCENARIO)
        config = dataclasses.replace(scenario.config, invariants=True)
        result = run_fresh(config)
        assert result.chained > 0
        assert result.patched == 0
        assert result.chain_underruns == 0

    def test_experiment_baseline_strips_only_the_tier(self):
        from repro.experiments.prefix import baseline_config

        scenario = load_scenario(OVERLOAD_SCENARIO)
        stripped = baseline_config(scenario.config)
        assert stripped.prefix is None
        assert stripped == dataclasses.replace(scenario.config, prefix=None)

    def test_result_row_is_json_stable(self):
        from repro.experiments.prefix import result_row

        scenario = load_scenario(WINDOW_SCENARIO)
        row = result_row(run_fresh(scenario.config))
        json.dumps(row)  # digestable
        assert {"rejection_ratio", "chained", "chain_underruns"} <= set(row)


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
        from repro.serve.gateway import serve_refusal

        config = prefix_config(PrefixPolicy(batching=batching))
        refusal = serve_refusal(config)
        assert "cannot serve chained sessions" in refusal
        with pytest.raises(ValueError) as err:
            ClusterGateway(config, ServeConfig(port=0))
        assert str(err.value) == refusal

    def test_serve_refusal_passes_cache_only_and_tierless_configs(self):
        from repro.serve.gateway import serve_refusal

        assert serve_refusal(prefix_config(PrefixPolicy(batching="none"))) is None
        assert serve_refusal(prefix_config(None)) is None

    def test_gateway_cache_stats_in_cache_only_mode(self):
        from repro.serve import ClusterGateway, ServeConfig
        from repro.serve.telemetry import snapshot

        reset_request_ids()
        config = prefix_config(PrefixPolicy(batching="none"))
        gateway = ClusterGateway(config, ServeConfig(port=0))
        stats = snapshot(gateway)["cache"]
        assert stats == gateway.bridge.sim.prefix_tier.stats()
        assert stats["batching"] == "none"
        assert {"hit_rate", "bytes_held_mb", "chained_active"} <= set(stats)

    def test_gateway_without_tier_reports_no_cache(self):
        from repro.serve import ClusterGateway, ServeConfig
        from repro.serve.telemetry import snapshot

        reset_request_ids()
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
        reset_request_ids()
        sim = Simulation(prefix_config(PrefixPolicy()))
        stats = sim.prefix_tier.stats()
        assert stats["strategy"] == "popularity"
        assert stats["capacity_mb"] == pytest.approx(50_000.0)
        for key in ("hits", "misses", "chained", "patched",
                    "underruns", "severed", "pending_warm"):
            assert isinstance(stats[key], int)
