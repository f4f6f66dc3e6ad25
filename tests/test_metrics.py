"""Unit tests for simulation metrics."""

import pytest

from repro.analysis.metrics import SimulationMetrics


class TestTransferAccounting:
    def test_record_bytes_totals_and_per_server(self):
        m = SimulationMetrics()
        m.record_bytes(0, 100.0)
        m.record_bytes(1, 50.0)
        m.record_bytes(0, 25.0)
        assert m.total_megabits == pytest.approx(175.0)
        assert m.bytes_per_server == {0: pytest.approx(125.0), 1: pytest.approx(50.0)}

    def test_none_server_counts_toward_total_only(self):
        m = SimulationMetrics()
        m.record_bytes(None, 10.0)
        assert m.total_megabits == 10.0
        assert m.bytes_per_server == {}

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            SimulationMetrics().record_bytes(0, -1.0)


class TestUtilization:
    def test_definition(self):
        m = SimulationMetrics()
        m.record_bytes(0, 500.0)
        # 500 Mb sent / (10 Mb/s × 100 s sendable) = 0.5
        assert m.utilization(total_bandwidth=10.0, duration=100.0) == pytest.approx(0.5)

    def test_invalid_denominator_rejected(self):
        with pytest.raises(ValueError):
            SimulationMetrics().utilization(0.0, 10.0)
        with pytest.raises(ValueError):
            SimulationMetrics().utilization(10.0, 0.0)


class TestAdmissionCounters:
    def test_ratios(self):
        m = SimulationMetrics()
        for _ in range(8):
            m.record_arrival()
        for _ in range(6):
            m.record_accept()
        m.record_reject()
        m.record_reject(no_replica=True)
        assert m.acceptance_ratio == pytest.approx(0.75)
        assert m.rejection_ratio == pytest.approx(0.25)
        assert m.rejected_no_replica == 1
        m.sanity_check()

    def test_empty_run_ratios(self):
        m = SimulationMetrics()
        assert m.acceptance_ratio == 1.0
        assert m.rejection_ratio == 0.0

    def test_sanity_check_detects_imbalance(self):
        m = SimulationMetrics()
        m.record_arrival()
        with pytest.raises(AssertionError):
            m.sanity_check()

    def test_migration_counters(self):
        m = SimulationMetrics()
        m.record_migration_attempt()
        m.record_migration(chain_length=2)
        assert m.migration_attempts == 1
        assert m.migrations == 2
        assert m.migration_chains_found == 1


class TestReset:
    def test_reset_zeroes_everything(self):
        m = SimulationMetrics()
        m.record_bytes(0, 10.0)
        m.record_arrival()
        m.record_accept()
        m.record_migration(1)
        m.finished = 3
        m.reset()
        assert m.total_megabits == 0.0
        assert m.bytes_per_server == {}
        assert m.arrivals == 0
        assert m.accepted == 0
        assert m.migrations == 0
        assert m.finished == 0
        m.sanity_check()
