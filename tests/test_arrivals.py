"""Unit tests for Poisson arrivals and load calibration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.workload.arrivals import (
    ModulatedArrivalProcess,
    PoissonArrivalProcess,
    calibrated_arrival_rate,
)
from repro.workload.catalog import Video, VideoCatalog
from repro.workload.zipf import ZipfPopularity, popularity_ranks


def uniform_catalog(n: int, size_mb: float = 100.0) -> VideoCatalog:
    return VideoCatalog(
        videos=tuple(
            Video(i, length=size_mb, view_bandwidth=1.0) for i in range(n)
        )
    )


class TestCalibration:
    def test_rate_times_expected_size_equals_capacity(self):
        catalog = uniform_catalog(10, size_mb=100.0)
        pop = ZipfPopularity(10, 1.0)
        rate = calibrated_arrival_rate(pop, catalog, total_bandwidth=500.0)
        # E[size] = 100 Mb; 500 Mb/s capacity → 5 req/s
        assert rate == pytest.approx(5.0)

    def test_skew_affects_rate_with_nonuniform_sizes(self):
        videos = tuple(
            Video(i, length=100.0 * (i + 1), view_bandwidth=1.0)
            for i in range(5)
        )
        catalog = VideoCatalog(videos=videos)
        skewed = ZipfPopularity(5, -1.0)   # mass on small video 0
        uniform = ZipfPopularity(5, 1.0)
        r_skew = calibrated_arrival_rate(skewed, catalog, 100.0)
        r_unif = calibrated_arrival_rate(uniform, catalog, 100.0)
        # Skewed demand requests mostly the short video 0, so a higher
        # arrival rate is needed to offer the same load.
        assert r_skew > r_unif

    def test_invalid_args_rejected(self):
        catalog = uniform_catalog(3)
        pop = ZipfPopularity(3, 0.0)
        with pytest.raises(ValueError):
            calibrated_arrival_rate(pop, catalog, 0.0)
        with pytest.raises(ValueError):
            calibrated_arrival_rate(pop, catalog, 10.0, load=0.0)


class TestPoissonProcess:
    def test_generates_expected_count(self, rng):
        engine = Engine()
        pop = ZipfPopularity(5, 1.0)
        seen = []
        PoissonArrivalProcess(
            engine, rate=10.0, popularity=pop, rng=rng,
            on_arrival=seen.append,
        )
        engine.run_until(1000.0)
        # 10 req/s × 1000 s = 10000 expected; 5 sigma ≈ 500
        assert 9500 <= len(seen) <= 10500

    def test_interarrival_mean(self, rng):
        engine = Engine()
        pop = ZipfPopularity(3, 1.0)
        times = []
        PoissonArrivalProcess(
            engine, rate=2.0, popularity=pop, rng=rng,
            on_arrival=lambda vid: times.append(engine.now),
        )
        engine.run_until(5000.0)
        gaps = np.diff(times)
        assert np.mean(gaps) == pytest.approx(0.5, rel=0.05)

    def test_video_ids_follow_popularity(self, rng):
        engine = Engine()
        pop = ZipfPopularity(3, -1.0)
        seen = []
        PoissonArrivalProcess(
            engine, rate=50.0, popularity=pop, rng=rng,
            on_arrival=seen.append,
        )
        engine.run_until(1000.0)
        freqs = np.bincount(seen, minlength=3) / len(seen)
        assert np.allclose(freqs, pop.probabilities, atol=0.02)

    @pytest.mark.parametrize(
        "process", [PoissonArrivalProcess, ModulatedArrivalProcess]
    )
    def test_the_process_decides_its_draw_loop(self, process):
        # Exactly the loop's arrivals, at their times; a thinned
        # candidate wakes the process too.
        pop = ZipfPopularity(5, 0.5)
        draws = list(itertools.takewhile(
            lambda draw: draw[0] <= 7200.0,
            process.draws(0.2, pop, np.random.default_rng(3)),
        ))
        engine, seen = Engine(), []
        process(
            engine, 0.2, pop, np.random.default_rng(3),
            lambda video: seen.append((engine.now, video)),
        )
        engine.run_until(7200.0)
        assert seen == [(t, video) for t, video in draws if video is not None]
        assert engine.events_fired == len(draws)

    def test_max_requests_cap(self, rng):
        # The process ends with its draw loop: a capped loop caps it.
        class Capped(PoissonArrivalProcess):
            @staticmethod
            def draws(rate, popularity, rng):
                return itertools.islice(
                    PoissonArrivalProcess.draws(rate, popularity, rng), 7
                )

        engine = Engine()
        pop = ZipfPopularity(2, 1.0)
        seen = []
        Capped(
            engine, rate=100.0, popularity=pop, rng=rng,
            on_arrival=seen.append,
        )
        # Returns only because the exhausted process left the agenda
        # empty.
        engine.run_until(math.inf)
        assert len(seen) == 7

    def test_stop_halts_generation(self, rng):
        engine = Engine()
        pop = ZipfPopularity(2, 1.0)
        seen = []
        proc = PoissonArrivalProcess(
            engine, rate=10.0, popularity=pop, rng=rng,
            on_arrival=seen.append,
        )
        engine.run_until(10.0)
        count = len(seen)
        proc.stop()
        engine.run_until(100.0)
        assert len(seen) == count

    def test_invalid_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(
                Engine(), rate=0.0, popularity=ZipfPopularity(2, 1.0),
                rng=rng, on_arrival=lambda v: None,
            )


def searchsorted_cdf(n: int, theta: float) -> np.ndarray:
    """The CDF the array-path sampler searched, guard included."""
    cdf = np.cumsum(popularity_ranks(n, theta))
    cdf[-1] = 1.0
    return cdf


def array_path_arrivals(process, rng, cdf, rate, count):
    """The arrival sequence the processes drew through numpy's array
    path (``exponential`` + ``searchsorted``), as ``(time, video)``."""
    peak = rate * 3.0 if process is ModulatedArrivalProcess else rate
    t, out = 0.0, []
    while len(out) < count:
        t = t + float(rng.exponential(1.0 / peak))
        if process is ModulatedArrivalProcess:
            burst = t % 3600.0 < 600.0
            if float(rng.uniform()) * peak >= (peak if burst else rate):
                continue
        u = rng.random(None)
        out.append((t, int(cdf.searchsorted(u, side="right"))))
    return out


class _FixedUniform:
    """A generator stand-in whose ``random()`` returns *u*."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


class TestScalarDraws:
    """Both arrival processes' draw loops draw a delay and a video as
    Python scalars; every draw equals the one numpy's array path made
    from the same generator state."""

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(min_value=-2.0, max_value=2.0),
        n=st.integers(min_value=1, max_value=500),
        rate=st.floats(min_value=0.01, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        process=st.sampled_from([PoissonArrivalProcess, ModulatedArrivalProcess]),
    )
    def test_same_sequence_as_the_array_path(self, theta, n, rate, seed, process):
        count = 2000
        draws = process.draws(
            rate, ZipfPopularity(n, theta), np.random.default_rng(seed)
        )
        seen = list(itertools.islice(
            ((t, video) for t, video in draws if video is not None), count
        ))
        cdf = searchsorted_cdf(n, theta)
        twin = np.random.default_rng(seed)
        assert seen == array_path_arrivals(process, twin, cdf, rate, count)

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(min_value=-2.0, max_value=2.0),
        n=st.integers(min_value=1, max_value=500),
    )
    def test_cdf_edges(self, theta, n):
        pop = ZipfPopularity(n, theta)
        cdf = searchsorted_cdf(n, theta)
        edges = [0.0, np.nextafter(1.0, 0.0), 1.0]
        for c in cdf.tolist():
            edges += [c, np.nextafter(c, 0.0)]
        for u in edges:
            assert pop.draw(_FixedUniform(float(u))) == int(
                cdf.searchsorted(u, side="right")
            )
