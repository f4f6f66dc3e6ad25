"""Poisson request arrivals calibrated to a target offered load.

Section 4.1: "The arrival rate is chosen so that if all the requests are
accepted, the utilization will be 100 %.  That is, the expected sum of
the sizes of all requested videos is equal to the number of servers
times the server bandwidth times the length of the simulation."

With request rate λ (req/s) and expected requested-video size
``E_p[size]`` (Mb, expectation under the demand distribution), offered
load equals cluster egress capacity when::

    λ * E_p[size] = total_cluster_bandwidth      (Mb/s)

:func:`calibrated_arrival_rate` solves for λ.  Each arrival kind
(:data:`ARRIVALS`) is one draw loop of ``(time, video)`` pairs —
:class:`PoissonArrivalProcess` draws exponential inter-arrival times
and a Zipf video choice per request — which a run consumes as an
engine process and the live load generator as a trace.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator, Optional, Tuple

import numpy as np

from repro.registry import Registry
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.workload.catalog import VideoCatalog
from repro.workload.zipf import ZipfPopularity


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
    """Homogeneous Poisson arrivals, as an engine process.

    Each arrival kind is one draw loop, :meth:`draws`: an endless
    iterator of ``(time, video)`` in time order (``video`` is None for a
    candidate the kind drew and discarded).  This one draws exponential
    inter-arrival times and a Zipf video choice per request.  The
    process wakes at each time behind every other event due then
    (docs/SERVING.md, "The parity contract") and hands the video to
    ``on_arrival``; ``serve.loadgen.arrival_trace`` reads the same loop.

    Args:
        engine: the simulation engine.
        rate: arrival rate λ in requests/second.
        popularity: demand distribution (video chooser).
        rng: random stream dedicated to arrivals.
        on_arrival: callback receiving the 0-based video id.
        **params: the kind's own parameters (see :meth:`draws`).
    """

    #: The process's name (its engine events' tag).
    name = "poisson-arrivals"

    def __init__(
        self,
        engine: Engine,
        rate: float,
        popularity: ZipfPopularity,
        rng: np.random.Generator,
        on_arrival: Callable[[int], None],
        **params: float,
    ) -> None:
        draws = self.draws(rate, popularity, rng, **params)
        self._process = Process(
            engine, self._feed(draws, on_arrival), name=self.name
        )

    @staticmethod
    def _feed(
        draws: Iterator[Tuple[float, Optional[int]]],
        on_arrival: Callable[[int], None],
    ) -> Generator[float, None, None]:
        for time, video in draws:
            yield time
            if video is not None:
                on_arrival(video)

    @staticmethod
    def draws(
        rate: float, popularity: ZipfPopularity, rng: np.random.Generator
    ) -> Iterator[Tuple[float, Optional[int]]]:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        draw = popularity.draw
        scale = 1.0 / rate
        time = 0.0
        while True:
            time = time + scale * rng.standard_exponential()
            yield time, draw(rng)

    @property
    def done(self) -> bool:
        return self._process.done

    def stop(self) -> None:
        """Stop generating further arrivals."""
        self._process.stop()


class ModulatedArrivalProcess(PoissonArrivalProcess):
    """Poisson arrivals with periodic rate bursts (prime-time surges).

    The instantaneous rate is piecewise constant: within each
    ``burst_interval`` window the first ``burst_length`` seconds run at
    ``rate * burst_multiplier`` and the remainder at the base *rate*.
    Sampling uses **thinning** (Lewis & Shedler): candidates are drawn
    at the peak rate and accepted with probability ``rate(t) / peak``,
    which keeps the process exact and — because every candidate draws
    the same two variates — bit-reproducible from the RNG stream
    regardless of which candidates are accepted.  A rejected candidate
    is drawn as ``(time, None)``: the process still wakes for it.

    The *mean* rate exceeds the base rate, so a load-calibrated config
    offers more than its nominal load during bursts — the point of the
    bursty workload.

    Parameters of :meth:`draws`: ``burst_interval`` (seconds between
    burst starts), ``burst_length`` (burst duration per interval,
    < interval) and ``burst_multiplier`` (rate factor inside a burst,
    > 0; values < 1 model off-peak lulls instead).
    """

    name = "modulated-arrivals"

    @staticmethod
    def draws(
        rate: float,
        popularity: ZipfPopularity,
        rng: np.random.Generator,
        burst_interval: float = 3600.0,
        burst_length: float = 600.0,
        burst_multiplier: float = 3.0,
    ) -> Iterator[Tuple[float, Optional[int]]]:
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
        draw = popularity.draw
        rate, burst_rate = float(rate), float(rate) * float(burst_multiplier)
        peak = rate * max(1.0, float(burst_multiplier))
        scale = 1.0 / peak
        time = 0.0
        while True:
            time = time + scale * rng.standard_exponential()
            accept = rng.random()
            in_burst = time % burst_interval < burst_length
            if accept * peak >= (burst_rate if in_burst else rate):
                yield time, None  # thinned candidate (off-burst phase)
            else:
                yield time, draw(rng)


#: Arrival-process registry: :class:`PoissonArrivalProcess` and its
#: subclasses, built by ``Simulation.run`` and drawn by ``arrival_trace``
#: with the kind's keyword parameters (``SimulationConfig.arrival_params``).
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
