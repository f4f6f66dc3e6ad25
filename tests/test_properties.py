"""Property-based tests (hypothesis) on core data structures and
invariants.

Covered properties:

* engine: any batch of scheduled events fires in (time, FIFO) order and
  cancellation is sound;
* zipf: normalisation, monotonicity and ordering hold for any (n, θ);
* erlang: recursion bounds and monotonicity for arbitrary (m, a);
* allocators: minimum flow, link conservation and receive caps hold for
  arbitrary request populations;
* request fluid flow: sent/viewed/buffer relations hold along arbitrary
  piecewise-constant rate schedules;
* end-to-end: conservation invariants hold for random tiny workloads.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.erlang import erlang_b
from repro.cluster.request import EPS_MB
from repro.cluster.server import DataServer
from repro.core.schedulers import ALLOCATORS
from repro.sim.engine import Engine
from repro.workload.zipf import ZipfPopularity

from conftest import make_client, make_request, make_video, rates_of


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        engine = Engine()
        fired = []
        for d in delays:
            engine.schedule(d, lambda d=d: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
            max_size=40,
        )
    )
    def test_cancelled_events_never_fire(self, spec):
        engine = Engine()
        fired = []
        for i, (delay, cancel) in enumerate(spec):
            handle = engine.schedule(delay, lambda i=i: fired.append(i))
            if cancel:
                handle.cancel()
        engine.run()
        expected = {i for i, (_, cancel) in enumerate(spec) if not cancel}
        assert set(fired) == expected


class TestZipfProperties:
    @given(
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=-2.0, max_value=1.5),
    )
    def test_normalised_and_monotone(self, n, theta):
        z = ZipfPopularity(n, theta)
        p = z.probabilities
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).all()
        if theta <= 1.0:
            assert (np.diff(p) <= 1e-12).all()

    @given(
        st.integers(min_value=2, max_value=500),
        st.floats(min_value=-1.5, max_value=0.9),
    )
    def test_skew_ratio_above_one_below_uniform_theta(self, n, theta):
        assert ZipfPopularity(n, theta).skew_ratio() > 1.0


class TestErlangProperties:
    @given(
        st.integers(min_value=0, max_value=300),
        st.floats(min_value=0.0, max_value=500.0),
    )
    def test_blocking_is_probability(self, m, a):
        b = erlang_b(m, a)
        assert 0.0 <= b <= 1.0

    @given(
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=0.01, max_value=200.0),
    )
    def test_adding_a_server_never_hurts(self, m, a):
        assert erlang_b(m + 1, a) <= erlang_b(m, a) + 1e-12


@st.composite
def request_population(draw):
    """A server plus a set of attached requests with random state."""
    n = draw(st.integers(min_value=1, max_value=12))
    view_bw = 1.0
    bandwidth = draw(st.floats(min_value=n * view_bw, max_value=n * view_bw * 10))
    server = DataServer(0, bandwidth=bandwidth, disk_capacity=1e12)
    server.store_replica(make_video(video_id=0, length=100.0))
    now = draw(st.floats(min_value=0.0, max_value=50.0))
    requests = []
    for _ in range(n):
        buffer_cap = draw(
            st.one_of(
                st.just(0.0),
                st.just(math.inf),
                st.floats(min_value=0.5, max_value=200.0),
            )
        )
        receive = draw(
            st.one_of(
                st.just(math.inf), st.floats(min_value=1.0, max_value=50.0)
            )
        )
        r = make_request(
            video=make_video(video_id=0, length=100.0),
            client=make_client(buffer_cap, receive),
        )
        # Random progress consistent with playback having started at 0
        # and minimum flow (sent >= viewed).
        viewed = min(100.0, view_bw * now)
        sent = draw(st.floats(min_value=viewed, max_value=100.0))
        r.bytes_sent = sent
        r.last_sync = now
        server.attach(r)
        requests.append(r)
    return server, requests, now


class TestAllocatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(request_population(), st.sampled_from(sorted(ALLOCATORS)))
    def test_minimum_flow_and_conservation(self, population, name):
        server, requests, now = population
        rates = rates_of(ALLOCATORS[name](), server, requests, now)
        assert set(rates) == {r.request_id for r in requests}
        total = sum(rates.values())
        assert total <= server.bandwidth + 1e-6
        for r in requests:
            rate = rates[r.request_id]
            if r.transmission_finished(now):
                assert rate == 0.0  # split off by the pass: no floor
                continue
            assert rate >= r.view_bandwidth - 1e-9  # nobody paused here
            assert rate <= r.client.receive_bandwidth + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(request_population())
    def test_eftf_boosts_only_streams_with_headroom(self, population):
        server, requests, now = population
        rates = rates_of(ALLOCATORS["eftf"](), server, requests, now)
        for r in requests:
            if rates[r.request_id] > r.view_bandwidth + 1e-9:
                assert r.headroom(now) > EPS_MB

    @settings(max_examples=40, deadline=None)
    @given(request_population())
    def test_eftf_priority_order(self, population):
        """If a stream got extra, every eligible stream with strictly
        less remaining data must be saturated (cap or spare ran out —
        which shows as *some* extra given)."""
        server, requests, now = population
        rates = rates_of(ALLOCATORS["eftf"](), server, requests, now)
        boosted = {
            r.request_id: rates[r.request_id] - r.view_bandwidth
            for r in requests
        }
        eligible = [
            r
            for r in requests
            if r.headroom(now) > EPS_MB
            and r.client.receive_bandwidth - r.view_bandwidth > 1e-9
        ]
        eligible.sort(key=lambda r: (r.projected_finish(now), r.request_id))
        seen_unsaturated = False
        for r in eligible:
            cap = r.client.receive_bandwidth - r.view_bandwidth
            saturated = boosted[r.request_id] >= min(cap, cap) - 1e-9 or (
                boosted[r.request_id] > 1e-9
            )
            if seen_unsaturated:
                # Everything after the first unsaturated stream gets nothing.
                assert boosted[r.request_id] <= 1e-9
            if not saturated:
                seen_unsaturated = True


class TestRequestFlowProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=10.0),   # rate multiple
                st.floats(min_value=0.1, max_value=20.0),   # dt
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_fluid_flow_invariants_along_schedule(self, steps):
        """Under any minimum-flow rate schedule: 0 <= viewed <= sent <=
        size, and buffer = sent - viewed."""
        r = make_request(
            video=make_video(video_id=0, length=100.0),
            client=make_client(math.inf),
        )
        t = 0.0
        for mult, dt in steps:
            r.rate = r.view_bandwidth * mult
            t += dt
            r.sync(t)
            sent = r.bytes_sent
            viewed = r.bytes_viewed(t)
            assert 0.0 <= viewed <= sent + 1e-9
            assert sent <= r.size + 1e-9
            assert r.buffer_occupancy(t) == pytest.approx(
                sent - viewed, abs=1e-6
            )
            assert r.headroom(t) >= 0.0


class TestTheoremOne:
    """Empirical check of Theorem 1: with no receive-bandwidth limit and
    no pausing, "for any set of request arrivals which can all be
    accommodated by any [minimum-flow] scheduling algorithm, EFTF will
    accommodate [them]".  Note the statement is about *fully feasible*
    arrival sets — on overloaded sequences per-arrival acceptance counts
    may differ either way once histories diverge."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.6, max_value=1.1),
    )
    def test_feasible_sets_stay_feasible_under_eftf(self, seed, theta, load):
        from repro import Simulation, SimulationConfig
        from repro.cluster.system import homogeneous

        system = homogeneous(
            name="thm1", n_servers=1, bandwidth=12.0, disk_capacity_gb=100.0,
            n_videos=10, video_length_range=(120.0, 600.0),
        )

        def run(scheduler: str):
            result = Simulation(SimulationConfig(
                system=system,
                theta=theta,
                staging_fraction=5.0,   # deep staging: Theorem 1's regime
                scheduler=scheduler,
                duration=4000.0,
                load=load,
                seed=seed,
                client_receive_bandwidth=math.inf,
            )).run()
            return result

        eftf = run("eftf")
        for rival in ("lftf", "proportional", "none"):
            rival_result = run(rival)
            if rival_result.rejected == 0:
                # The arrival set was fully accommodated by *some*
                # minimum-flow algorithm → EFTF must accommodate it too.
                assert eftf.rejected == 0, (
                    f"{rival} accommodated all {rival_result.arrivals} "
                    f"arrivals but EFTF rejected {eftf.rejected}"
                )


class TestEndToEndConservation:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-1.5, max_value=1.0),
        st.sampled_from([0.0, 0.2]),
        st.booleans(),
    )
    def test_random_tiny_workloads_conserve(self, seed, theta, staging, migrate):
        from repro import MigrationPolicy, Simulation, SimulationConfig
        from repro.cluster.system import homogeneous

        system = homogeneous(
            name="prop", n_servers=3, bandwidth=30.0, disk_capacity_gb=50.0,
            n_videos=30, video_length_range=(300.0, 900.0),
        )
        config = SimulationConfig(
            system=system,
            theta=theta,
            staging_fraction=staging,
            migration=(
                MigrationPolicy.paper_default()
                if migrate
                else MigrationPolicy.disabled()
            ),
            duration=1800.0,
            seed=seed,
        )
        sim = Simulation(config)
        result = sim.run()
        assert 0.0 <= result.utilization <= 1.0 + 1e-9
        assert result.accepted + result.rejected == result.arrivals
        sim.controller.check_invariants()
        # Bytes sent can never exceed what the accepted videos contain.
        accepted_volume = result.megabits_sent
        assert accepted_volume <= (
            result.accepted * sim.catalog.sizes.max() + 1e-6
        )
