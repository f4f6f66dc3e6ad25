"""Unit tests for trial statistics."""

import math

import pytest

from repro.analysis.stats import summarize


def _half(stats):
    return (stats.ci_high - stats.ci_low) / 2.0


class TestSummarize:
    def test_single_value(self):
        s = summarize([0.5])
        assert s.mean == 0.5
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 0.5
        assert s.n == 1

    def test_mean_and_std(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == pytest.approx(3.0)
        assert s.std == pytest.approx(math.sqrt(2.5))
        assert s.minimum == 1.0 and s.maximum == 5.0

    def test_ci_contains_mean_and_is_symmetric(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.ci_low < s.mean < s.ci_high
        assert (s.mean - s.ci_low) == pytest.approx(s.ci_high - s.mean)

    def test_ci_narrows_with_more_trials(self):
        narrow = summarize([1.0, 2.0] * 20)
        wide = summarize([1.0, 2.0])
        assert _half(narrow) < _half(wide)

    def test_five_trials_use_student_t_with_four_degrees(self):
        # The paper's n = 5: t_4 = 2.776, 1.42x the normal z = 1.96.
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert _half(s) == pytest.approx(
            2.776 * s.std / math.sqrt(5), abs=1e-3
        )

    def test_one_trial_has_zero_width(self):
        s = summarize([0.25])
        assert _half(s) == 0.0 and s.ci_low == s.ci_high == 0.25

    def test_large_n_converges_to_normal_z(self):
        s = summarize([1.0, 2.0] * 5000)
        assert _half(s) / s.stderr == pytest.approx(1.96, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_rendering(self):
        text = str(summarize([1.0, 2.0]))
        assert "±" in text and "n=2" in text
