"""Unit tests for CSV export of sweep results."""

import csv

import pytest

from repro.analysis.export import sweep_to_csv
from repro.analysis.stats import summarize
from repro.experiments.base import ExperimentScale, SweepResult


def make_result():
    scale = ExperimentScale(duration=100.0, warmup=0.0, trials=3, scale=0.1)
    return SweepResult(
        x_label="theta",
        x_values=[0.0, 0.5, 1.0],
        curves={
            "a": [summarize([0.1, 0.2, 0.3]) for _ in range(3)],
            "b": [summarize([0.8, 0.9]) for _ in range(3)],
        },
        metric="utilization",
        scale=scale,
    )


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[0] == "theta"
        assert [float(row[0]) for row in rows] == [0.0, 0.5, 1.0]
        assert header[1::3] == ["a", "b"]
        mean, lo, hi = map(float, rows[0][1:4])
        assert mean == pytest.approx(0.2, abs=1e-6)
        assert lo < 0.2 < hi

    def test_header_layout(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(make_result(), path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "theta"
        assert header[1:4] == ["a", "a_ci_low", "a_ci_high"]

    def test_row_count(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv(make_result(), path)
        assert len(path.read_text().splitlines()) == 4  # header + 3
