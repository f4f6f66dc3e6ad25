"""Unit tests for request traces."""

import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.workload.trace import RequestSpec, Trace, generate_trace
from repro.workload.zipf import ZipfPopularity


class TestRequestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestSpec(-1.0, 0)
        with pytest.raises(ValueError):
            RequestSpec(1.0, -1)


class TestTrace:
    def test_sorted_on_construction(self):
        t = Trace([RequestSpec(5.0, 1), RequestSpec(1.0, 2), RequestSpec(3.0, 3)])
        assert [r.time for r in t] == [1.0, 3.0, 5.0]

    def test_len_getitem_duration(self):
        t = Trace([RequestSpec(1.0, 0), RequestSpec(4.0, 1)])
        assert len(t) == 2
        assert t[1].video_id == 1
        assert t.duration == 4.0
        assert Trace([]).duration == 0.0

    def test_video_frequencies(self):
        t = Trace([RequestSpec(1.0, 0), RequestSpec(2.0, 0), RequestSpec(3.0, 2)])
        assert t.video_frequencies(3).tolist() == [2, 0, 1]

    def test_window_rebases_times(self):
        t = Trace([RequestSpec(float(i), i) for i in range(10)])
        w = t.window(3.0, 6.0)
        assert [r.time for r in w] == [0.0, 1.0, 2.0]
        assert [r.video_id for r in w] == [3, 4, 5]

    def test_flash_crowd_adds_requests_in_window(self, rng):
        base = Trace([RequestSpec(float(i), 0) for i in range(100)])
        crowded = base.with_flash_crowd(
            video_id=7, start=10.0, duration=20.0, extra_rate=5.0, rng=rng
        )
        extra = [r for r in crowded if r.video_id == 7]
        assert len(extra) > 50  # ~100 expected
        assert all(10.0 <= r.time < 30.0 for r in extra)
        assert len(crowded) == len(base) + len(extra)

    def test_remapped_applies_permutation(self):
        t = Trace([RequestSpec(1.0, 0), RequestSpec(2.0, 1)])
        swapped = t.remapped(lambda v: 1 - v)
        assert [r.video_id for r in swapped] == [1, 0]

    def test_csv_roundtrip(self, tmp_path, rng):
        pop = ZipfPopularity(5, 0.0)
        t = generate_trace(100.0, 1.0, pop, rng)
        path = tmp_path / "trace.csv"
        t.save_csv(path)
        loaded = Trace.load_csv(path)
        assert len(loaded) == len(t)
        for a, b in zip(t, loaded):
            assert a.time == pytest.approx(b.time, abs=1e-6)
            assert a.video_id == b.video_id

    def test_schedule_on_replays_in_order(self):
        engine = Engine()
        t = Trace([RequestSpec(2.0, 5), RequestSpec(1.0, 3)])
        seen = []
        t.schedule_on(engine, lambda vid: seen.append((engine.now, vid)))
        engine.run()
        assert seen == [(1.0, 3), (2.0, 5)]


class TestGenerateTrace:
    def test_count_matches_rate(self, rng):
        pop = ZipfPopularity(3, 1.0)
        t = generate_trace(1000.0, 10.0, pop, rng)
        assert 9500 <= len(t) <= 10500

    def test_times_within_duration(self, rng):
        pop = ZipfPopularity(3, 1.0)
        t = generate_trace(50.0, 2.0, pop, rng)
        assert all(0.0 <= r.time < 50.0 for r in t)

    def test_video_distribution(self, rng):
        pop = ZipfPopularity(4, -0.5)
        t = generate_trace(5000.0, 20.0, pop, rng)
        freqs = t.video_frequencies(4) / len(t)
        assert np.allclose(freqs, pop.probabilities, atol=0.02)

    def test_invalid_args_rejected(self, rng):
        pop = ZipfPopularity(2, 0.0)
        with pytest.raises(ValueError):
            generate_trace(0.0, 1.0, pop, rng)
        with pytest.raises(ValueError):
            generate_trace(10.0, 0.0, pop, rng)


class TestDeterminism:
    """Same seed => byte-identical trace (the live-serving parity chain
    starts here: gateway and replay must derive the same workload)."""

    @pytest.mark.parametrize("seed", [0, 7, 21, 1234])
    def test_same_seed_same_sequence(self, seed):
        pop = ZipfPopularity(12, -0.8)
        a = generate_trace(200.0, 0.7, pop, np.random.default_rng(seed))
        b = generate_trace(200.0, 0.7, pop, np.random.default_rng(seed))
        assert len(a) == len(b)
        assert all(
            x.time == y.time and x.video_id == y.video_id
            for x, y in zip(a, b)
        )

    def test_different_seeds_differ(self):
        pop = ZipfPopularity(12, -0.8)
        a = generate_trace(200.0, 0.7, pop, np.random.default_rng(1))
        b = generate_trace(200.0, 0.7, pop, np.random.default_rng(2))
        assert [(r.time, r.video_id) for r in a] != [
            (r.time, r.video_id) for r in b
        ]

    def test_save_load_replays_identically(self, tmp_path, rng):
        """CSV persistence must not perturb a replay: scheduling the
        loaded trace fires the same (time, video) sequence."""
        pop = ZipfPopularity(5, -0.5)
        trace = generate_trace(50.0, 1.0, pop, rng)
        path = tmp_path / "replay.csv"
        trace.save_csv(path)
        loaded = Trace.load_csv(path)

        def fire(t):
            engine = Engine()
            seen = []
            t.schedule_on(engine, lambda vid: seen.append((engine.now, vid)))
            engine.run()
            return seen

        original, replayed = fire(trace), fire(loaded)
        assert len(original) == len(replayed)
        for (ta, va), (tb, vb) in zip(original, replayed):
            assert ta == pytest.approx(tb, abs=1e-6)
            assert va == vb


class TestLoadCsvErrors:
    """A partially written trace must fail loudly, not replay shortened."""

    def _write(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        return path

    def test_truncated_row_regression(self, tmp_path, rng):
        pop = ZipfPopularity(5, 0.0)
        trace = generate_trace(100.0, 1.0, pop, rng)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        # Chop the file mid-row, as an interrupted writer would.
        text = path.read_text()
        path.write_text(text[: text.rfind(",") + 1])
        with pytest.raises(ValueError, match=r"trace\.csv: line \d+"):
            Trace.load_csv(path)

    def test_missing_field_names_line(self, tmp_path):
        path = self._write(tmp_path, "time,video_id\n1.0,3\n2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            Trace.load_csv(path)

    def test_non_numeric_row(self, tmp_path):
        path = self._write(tmp_path, "time,video_id\noops,3\n")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            Trace.load_csv(path)

    def test_wrong_header_named(self, tmp_path):
        path = self._write(tmp_path, "when,what\n1.0,3\n")
        with pytest.raises(ValueError, match="expected header"):
            Trace.load_csv(path)

    def test_negative_values_rejected(self, tmp_path):
        path = self._write(tmp_path, "time,video_id\n-1.0,3\n")
        with pytest.raises(ValueError, match="line 2"):
            Trace.load_csv(path)

    def test_empty_file_is_just_a_bad_header(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="expected header"):
            Trace.load_csv(path)
