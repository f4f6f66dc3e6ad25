"""Unit tests for the Erlang-B analytic model."""

import math

import pytest

from repro.analysis.erlang import (
    erlang_b,
    erlang_b_inverse,
    erlang_b_utilization,
)


def erlang_b_direct(m: int, a: float) -> float:
    """Reference implementation via the closed form (small m only)."""
    num = a**m / math.factorial(m)
    den = sum(a**k / math.factorial(k) for k in range(m + 1))
    return num / den


class TestErlangB:
    def test_known_values(self):
        # B(1, 1) = 1/2; B(2, 1) = 1/5 — textbook values.
        assert erlang_b(1, 1.0) == pytest.approx(0.5)
        assert erlang_b(2, 1.0) == pytest.approx(0.2)

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20])
    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 20.0])
    def test_recursion_matches_closed_form(self, m, a):
        assert erlang_b(m, a) == pytest.approx(erlang_b_direct(m, a), rel=1e-12)

    def test_monotone_decreasing_in_servers(self):
        blocks = [erlang_b(m, 10.0) for m in range(1, 30)]
        assert blocks == sorted(blocks, reverse=True)

    def test_monotone_increasing_in_load(self):
        blocks = [erlang_b(10, a) for a in (1.0, 5.0, 10.0, 20.0)]
        assert blocks == sorted(blocks)

    def test_zero_load(self):
        assert erlang_b(5, 0.0) == 0.0
        assert erlang_b(0, 0.0) == 1.0

    def test_large_m_stable(self):
        # Factorial form would overflow; recursion must not.
        b = erlang_b(1000, 1000.0)
        assert 0.0 < b < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_b(-1, 1.0)
        with pytest.raises(ValueError):
            erlang_b(1, -1.0)


class TestUtilization:
    def test_at_full_load_is_one_minus_blocking(self):
        for m in (5, 33, 100):
            expected = 1.0 - erlang_b(m, float(m))
            assert erlang_b_utilization(m, load=1.0) == pytest.approx(expected)

    def test_grows_with_svbr(self):
        """The paper's point: bigger SVBR → higher utilization."""
        utils = [erlang_b_utilization(m) for m in (5, 10, 33, 100, 500)]
        assert utils == sorted(utils)
        assert utils[-1] > 0.95

    def test_light_load_fully_carried(self):
        assert erlang_b_utilization(100, load=0.5) == pytest.approx(0.5, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_b_utilization(0)


class TestInverse:
    def test_inverse_is_consistent(self):
        for a in (5.0, 50.0):
            for target in (0.1, 0.01):
                m = erlang_b_inverse(target, a)
                assert erlang_b(m, a) <= target
                if m > 1:
                    assert erlang_b(m - 1, a) > target

    def test_zero_load_needs_no_servers(self):
        assert erlang_b_inverse(0.01, 0.0) == 0

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            erlang_b_inverse(1e-12, 1000.0, max_servers=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_b_inverse(0.0, 1.0)
        with pytest.raises(ValueError):
            erlang_b_inverse(1.0, 1.0)
