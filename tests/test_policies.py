"""Unit tests for the Figure 6 policy matrix."""

import pytest

from repro.core.policies import PAPER_POLICIES, Policy


class TestPolicyMatrix:
    def test_eight_policies_in_order(self):
        assert list(PAPER_POLICIES) == [f"P{i}" for i in range(1, 9)]

    def test_figure6_rows_verbatim(self):
        expected = {
            "P1": ("even", False, 0.0),
            "P2": ("even", False, 0.2),
            "P3": ("even", True, 0.0),
            "P4": ("even", True, 0.2),
            "P5": ("predictive", False, 0.0),
            "P6": ("predictive", False, 0.2),
            "P7": ("predictive", True, 0.0),
            "P8": ("predictive", True, 0.2),
        }
        for name, (placement, migration, staging) in expected.items():
            p = PAPER_POLICIES[name]
            assert p.placement == placement
            assert p.migration is migration
            assert p.staging_fraction == pytest.approx(staging)

    def test_migration_policy_resolution(self):
        p4 = PAPER_POLICIES["P4"].migration_policy()
        assert p4.enabled
        assert p4.max_chain_length == 1
        assert p4.max_hops_per_request == 1
        p1 = PAPER_POLICIES["P1"].migration_policy()
        assert not p1.enabled

    def test_describe_is_figure6_style(self):
        text = PAPER_POLICIES["P4"].describe()
        assert "P4" in text and "Even" in text
        assert "Migr" in text and "20% Buffer" in text

    def test_policy_is_frozen(self):
        with pytest.raises(Exception):
            PAPER_POLICIES["P1"].placement = "partial"

    def test_custom_policy(self):
        p = Policy(name="X", placement="partial", migration=True, staging_fraction=0.5)
        assert p.migration_policy().enabled
        assert "Partial" in p.describe()
