"""Poisson request arrivals calibrated to a target offered load.

Section 4.1: "The arrival rate is chosen so that if all the requests are
accepted, the utilization will be 100 %.  That is, the expected sum of
the sizes of all requested videos is equal to the number of servers
times the server bandwidth times the length of the simulation."

With request rate λ (req/s) and expected requested-video size
``E_p[size]`` (Mb, expectation under the demand distribution), offered
load equals cluster egress capacity when::

    λ * E_p[size] = total_cluster_bandwidth      (Mb/s)

:func:`calibrated_arrival_rate` solves for λ;
:class:`PoissonArrivalProcess` is an engine process that draws
exponential inter-arrival times and a Zipf video choice per request.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from repro.registry import Registry
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.workload.catalog import VideoCatalog
from repro.workload.zipf import ZipfPopularity


def offered_load(
    arrival_rate: float,
    popularity: ZipfPopularity,
    catalog: VideoCatalog,
    total_bandwidth: float,
) -> float:
    """Offered load as a fraction of cluster capacity (1.0 = saturating)."""
    expected_size = popularity.expected_value(catalog.sizes)
    return arrival_rate * expected_size / total_bandwidth


def calibrated_arrival_rate(
    popularity: ZipfPopularity,
    catalog: VideoCatalog,
    total_bandwidth: float,
    load: float = 1.0,
) -> float:
    """Arrival rate (req/s) that offers ``load`` × cluster capacity.

    Args:
        popularity: demand distribution over the catalog.
        catalog: the video catalog (for sizes).
        total_bandwidth: sum of server bandwidths, Mb/s.
        load: target offered load; the paper uses 1.0 throughout to
            "place as much stress as possible on the system".
    """
    if load <= 0:
        raise ValueError(f"load must be positive, got {load}")
    if total_bandwidth <= 0:
        raise ValueError(f"total bandwidth must be positive, got {total_bandwidth}")
    expected_size = popularity.expected_value(catalog.sizes)
    return load * total_bandwidth / expected_size


class PoissonArrivalProcess:
    """Generate requests with exponential inter-arrival times.

    Each arrival draws a video id from *popularity* and invokes
    ``on_arrival(video_id)``.  The process runs until stopped or until
    the engine's run window ends.

    Args:
        engine: the simulation engine.
        rate: arrival rate λ in requests/second.
        popularity: demand distribution (video chooser).
        rng: random stream dedicated to arrivals.
        on_arrival: callback receiving the 0-based video id.
        max_requests: optional hard cap on generated requests.
    """

    def __init__(
        self,
        engine: Engine,
        rate: float,
        popularity: ZipfPopularity,
        rng: np.random.Generator,
        on_arrival: Callable[[int], None],
        max_requests: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.engine = engine
        self.rate = float(rate)
        self.popularity = popularity
        self.rng = rng
        self.on_arrival = on_arrival
        self.max_requests = max_requests
        self.generated = 0
        self._process = Process(engine, self._run(), name="poisson-arrivals")

    def _run(self) -> Generator[float, None, None]:
        rng, draw = self.rng, self.popularity.draw
        scale = 1.0 / self.rate
        while self.max_requests is None or self.generated < self.max_requests:
            yield scale * rng.standard_exponential()
            video_id = draw(rng)
            self.generated += 1
            self.on_arrival(video_id)

    @property
    def done(self) -> bool:
        return self._process.done

    def stop(self) -> None:
        """Stop generating further arrivals."""
        self._process.stop()


class ModulatedArrivalProcess:
    """Poisson arrivals with periodic rate bursts (prime-time surges).

    The instantaneous rate is piecewise constant: within each
    ``burst_interval`` window the first ``burst_length`` seconds run at
    ``rate * burst_multiplier`` and the remainder at the base *rate*.
    Sampling uses **thinning** (Lewis & Shedler): candidates are drawn
    at the peak rate and accepted with probability ``rate(t) / peak``,
    which keeps the process exact and — because every candidate draws
    the same two variates — bit-reproducible from the RNG stream
    regardless of which candidates are accepted.

    The *mean* rate exceeds the base rate, so a load-calibrated config
    offers more than its nominal load during bursts — the point of the
    bursty workload.

    Args:
        engine: the simulation engine.
        rate: base arrival rate λ in requests/second.
        popularity: demand distribution (video chooser).
        rng: random stream dedicated to arrivals.
        on_arrival: callback receiving the 0-based video id.
        burst_interval: seconds between burst starts.
        burst_length: burst duration per interval (< interval).
        burst_multiplier: rate factor inside a burst (> 0; values < 1
            model off-peak lulls instead).
        max_requests: optional hard cap on generated requests.
    """

    def __init__(
        self,
        engine: Engine,
        rate: float,
        popularity: ZipfPopularity,
        rng: np.random.Generator,
        on_arrival: Callable[[int], None],
        burst_interval: float = 3600.0,
        burst_length: float = 600.0,
        burst_multiplier: float = 3.0,
        max_requests: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if burst_interval <= 0:
            raise ValueError(
                f"burst_interval must be positive, got {burst_interval}"
            )
        if not 0.0 < burst_length < burst_interval:
            raise ValueError(
                f"burst_length must be in (0, burst_interval), "
                f"got {burst_length} (interval {burst_interval})"
            )
        if burst_multiplier <= 0:
            raise ValueError(
                f"burst_multiplier must be positive, got {burst_multiplier}"
            )
        self.engine = engine
        self.rate = float(rate)
        self.popularity = popularity
        self.rng = rng
        self.on_arrival = on_arrival
        self.burst_interval = float(burst_interval)
        self.burst_length = float(burst_length)
        self.burst_multiplier = float(burst_multiplier)
        self.max_requests = max_requests
        self.generated = 0
        self._peak = self.rate * max(1.0, self.burst_multiplier)
        self._process = Process(engine, self._run(), name="modulated-arrivals")

    def _rate_at(self, t: float) -> float:
        phase = t % self.burst_interval
        if phase < self.burst_length:
            return self.rate * self.burst_multiplier
        return self.rate

    def _run(self) -> Generator[float, None, None]:
        rng, draw = self.rng, self.popularity.draw
        scale = 1.0 / self._peak
        while self.max_requests is None or self.generated < self.max_requests:
            yield scale * rng.standard_exponential()
            accept = rng.random()
            now = self.engine.now
            if accept * self._peak >= self._rate_at(now):
                continue  # thinned candidate (off-burst phase)
            video_id = draw(rng)
            self.generated += 1
            self.on_arrival(video_id)

    @property
    def done(self) -> bool:
        return self._process.done

    def stop(self) -> None:
        """Stop generating further arrivals."""
        self._process.stop()


#: Arrival-process registry used by the simulation builder's workload
#: stage; entries are factories with the :class:`PoissonArrivalProcess`
#: constructor signature plus per-process keyword parameters
#: (``SimulationConfig.arrival_params``).
ARRIVALS: Registry[type] = Registry("arrival process")
ARRIVALS.register(
    "poisson", PoissonArrivalProcess,
    help="homogeneous Poisson arrivals (the paper's Section 4.1 model)",
)
ARRIVALS.register(
    "bursty", ModulatedArrivalProcess,
    help="periodically modulated Poisson arrivals via thinning "
         "(prime-time bursts; params: burst_interval, burst_length, "
         "burst_multiplier)",
)
