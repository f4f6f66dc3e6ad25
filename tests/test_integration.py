"""Integration tests: the paper's qualitative claims at reduced scale.

These pin the *shapes* the figure verbs regenerate: orderings and
separations between mechanisms, not absolute values.  Durations are
small (a few simulated hours) but chosen so each claim is comfortably
outside run-to-run noise with a fixed seed.
"""

import pytest

from repro import (
    SMALL_SYSTEM,
    MigrationPolicy,
    SimulationConfig,
    run_simulation,
)
from repro.analysis.erlang import erlang_b_utilization
from repro.experiments.svbr import one_server_system
from repro.units import hours

#: A small-system variant light enough for many runs per test.
TINY = SMALL_SYSTEM.scaled(n_videos=120, name="tiny")


def run(theta=0.27, system=TINY, sim_hours=8.0, warm_hours=2.0, seed=9, **kw):
    return run_simulation(
        SimulationConfig(
            system=system,
            theta=theta,
            duration=hours(sim_hours),
            warmup=hours(warm_hours),
            seed=seed,
            client_receive_bandwidth=30.0,
            **kw,
        )
    )


class TestStagingClaims:
    """Figure 5: staging lifts utilization; 20 % ≈ 100 %."""

    def test_staging_improves_utilization(self):
        base = run(staging_fraction=0.0)
        staged = run(staging_fraction=0.2)
        assert staged.utilization > base.utilization + 0.01

    def test_twenty_percent_near_full_buffer(self):
        """The paper's headline: 20 % captures almost all the benefit."""
        none = run(staging_fraction=0.0)
        twenty = run(staging_fraction=0.2)
        full = run(staging_fraction=1.0)
        gain_twenty = twenty.utilization - none.utilization
        gain_full = full.utilization - none.utilization
        assert gain_full > 0
        assert gain_twenty >= 0.8 * gain_full

    def test_staging_monotone_in_buffer_size(self):
        utils = [
            run(staging_fraction=f).utilization for f in (0.0, 0.02, 0.2)
        ]
        assert utils[0] <= utils[1] + 0.005  # tiny buffers: ~no harm
        assert utils[1] < utils[2]

    def test_staging_raises_acceptance(self):
        base = run(staging_fraction=0.0)
        staged = run(staging_fraction=0.2)
        assert staged.acceptance_ratio > base.acceptance_ratio


class TestMigrationClaims:
    """Figure 4: DRM lifts utilization; hops=1 ≈ unlimited."""

    def test_migration_improves_utilization(self):
        base = run(migration=MigrationPolicy.disabled())
        drm = run(migration=MigrationPolicy.paper_default())
        assert drm.migrations > 0
        assert drm.utilization > base.utilization

    def test_one_hop_close_to_unlimited(self):
        one = run(migration=MigrationPolicy.paper_default())
        unlimited = run(migration=MigrationPolicy.unlimited_hops())
        assert abs(one.utilization - unlimited.utilization) < 0.02

    def test_migration_count_bounded_by_chain_rule(self):
        """Chain length 1 → at most one migration per arrival."""
        result = run(migration=MigrationPolicy.paper_default())
        assert result.migrations <= result.arrivals


class TestPlacementClaims:
    """Figures 4/7: even placement sags at negative θ; predictive and
    partial predictive rescue it; all comparable at θ >= 0."""

    def test_even_allocation_sags_at_negative_theta(self):
        mid = run(theta=0.5, placement="even")
        skewed = run(theta=-1.5, placement="even")
        assert skewed.utilization < mid.utilization - 0.05

    def test_predictive_rescues_skewed_demand(self):
        even = run(theta=-1.5, placement="even",
                   migration=MigrationPolicy.paper_default(),
                   staging_fraction=0.2)
        pred = run(theta=-1.5, placement="predictive",
                   migration=MigrationPolicy.paper_default(),
                   staging_fraction=0.2)
        assert pred.utilization > even.utilization + 0.05

    def test_partial_predictive_close_to_predictive(self):
        partial = run(theta=-1.5, placement="partial",
                      migration=MigrationPolicy.paper_default(),
                      staging_fraction=0.2)
        pred = run(theta=-1.5, placement="predictive",
                   migration=MigrationPolicy.paper_default(),
                   staging_fraction=0.2)
        assert partial.utilization > pred.utilization - 0.08

    def test_even_matches_predictive_at_uniform_demand(self):
        even = run(theta=1.0, placement="even",
                   migration=MigrationPolicy.paper_default(),
                   staging_fraction=0.2)
        pred = run(theta=1.0, placement="predictive",
                   migration=MigrationPolicy.paper_default(),
                   staging_fraction=0.2)
        assert abs(even.utilization - pred.utilization) < 0.03


class TestPolicyOrdering:
    """Figure 7's summary: P4 ≈ P8 dominate at θ = 0.5."""

    def test_p4_close_to_p8_at_moderate_theta(self):
        p4 = run(theta=0.5, placement="even",
                 migration=MigrationPolicy.paper_default(),
                 staging_fraction=0.2)
        p8 = run(theta=0.5, placement="predictive",
                 migration=MigrationPolicy.paper_default(),
                 staging_fraction=0.2)
        p1 = run(theta=0.5, placement="even")
        assert abs(p4.utilization - p8.utilization) < 0.03
        assert p4.utilization > p1.utilization


class TestAnalyticValidation:
    """EXT-SVBR: one-server simulation matches Erlang-B (the paper's own
    simulator-validation methodology)."""

    @pytest.mark.parametrize("svbr", [10, 33])
    def test_one_server_matches_erlang_b(self, svbr):
        system = one_server_system(svbr)
        result = run_simulation(
            SimulationConfig(
                system=system, theta=0.27, placement="even",
                scheduler="none", staging_fraction=0.0,
                duration=hours(30), warmup=hours(5), seed=13,
            )
        )
        analytic = erlang_b_utilization(svbr, load=1.0)
        assert result.utilization == pytest.approx(analytic, abs=0.035)

    def test_utilization_grows_with_svbr(self):
        utils = []
        for svbr in (5, 20, 100):
            system = one_server_system(svbr)
            utils.append(
                run_simulation(
                    SimulationConfig(
                        system=system, theta=0.27, scheduler="none",
                        duration=hours(20), warmup=hours(4), seed=13,
                    )
                ).utilization
            )
        assert utils == sorted(utils)


class TestSchedulerAblation:
    """EFTF beats the idle-spare baseline and is at least as good as the
    alternatives it was chosen over."""

    def test_eftf_beats_no_workahead(self):
        eftf = run(staging_fraction=0.2, scheduler="eftf")
        none = run(staging_fraction=0.2, scheduler="none")
        assert eftf.utilization > none.utilization + 0.01

    def test_eftf_at_least_matches_lftf(self):
        eftf = run(staging_fraction=0.2, scheduler="eftf")
        lftf = run(staging_fraction=0.2, scheduler="lftf")
        assert eftf.utilization >= lftf.utilization - 0.005
