"""Calibrated capacity profiles (repro.cluster.profile).

Covered:

* heterogeneous presets stay capacity-matched to their homogeneous
  twins for arbitrary spreads (property test — the capacity seam the
  calibration layer relies on);
* calibration determinism, the jitter=0 identity, and the clamp;
* ``CalibrationConfig``'s round trip (profiles are runtime output and
  do not serialize);
* profiles applied to servers: the effective-bandwidth seam composes
  calibration with link degradation multiplicatively.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profile import (
    CalibrationConfig,
    ClusterProfile,
    ServerProfile,
    calibrate,
    calibrate_server,
    identity_profile,
)
from repro.cluster.server import DataServer
from repro.cluster.system import (
    SMALL_SYSTEM,
    heterogeneous_bandwidth,
    heterogeneous_storage,
)
from repro.sim.rng import RandomStreams


class TestHeterogeneousTwins:
    @given(
        spread=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_bandwidth_preset_capacity_matched(self, spread, seed):
        rng = np.random.default_rng(seed)
        het = heterogeneous_bandwidth(SMALL_SYSTEM, spread, rng)
        assert het.n_servers == SMALL_SYSTEM.n_servers
        assert het.total_bandwidth == pytest.approx(
            SMALL_SYSTEM.total_bandwidth
        )
        assert all(b > 0 for b in het.server_bandwidths)

    @given(
        spread=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_storage_preset_capacity_matched(self, spread, seed):
        rng = np.random.default_rng(seed)
        het = heterogeneous_storage(SMALL_SYSTEM, spread, rng)
        assert het.total_storage == pytest.approx(
            SMALL_SYSTEM.total_storage
        )
        assert all(d > 0 for d in het.disk_capacities)

    @given(
        spread=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_identity_profile_preserves_twin_totals(self, spread, seed):
        """The identity profile of a heterogeneous system reports the
        same cluster capacity as its homogeneous twin's."""
        rng = np.random.default_rng(seed)
        het = heterogeneous_bandwidth(SMALL_SYSTEM, spread, rng)
        assert identity_profile(het).total_bandwidth == pytest.approx(
            identity_profile(SMALL_SYSTEM).total_bandwidth
        )


class TestCalibration:
    def test_zero_jitter_is_identity(self):
        profile = calibrate(
            SMALL_SYSTEM,
            CalibrationConfig(jitter=0.0),
            RandomStreams(seed=7).get("calibrate"),
        )
        assert profile.calibrated
        for sp, nominal in zip(
            profile.profiles, SMALL_SYSTEM.server_bandwidths
        ):
            assert sp.bandwidth == pytest.approx(nominal)

    def test_same_substream_same_profile(self):
        config = CalibrationConfig(trials=5, jitter=0.2)
        one = calibrate(
            SMALL_SYSTEM, config, RandomStreams(seed=3).get("calibrate")
        )
        two = calibrate(
            SMALL_SYSTEM, config, RandomStreams(seed=3).get("calibrate")
        )
        assert one == two

    @given(
        jitter=st.floats(min_value=0.0, max_value=0.49),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_measurements_clamped(self, jitter, seed):
        profile = calibrate_server(
            0, 100.0, 4000.0,
            CalibrationConfig(jitter=jitter),
            RandomStreams(seed=seed).get("calibrate"),
        )
        assert 50.0 <= profile.bandwidth <= 200.0

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            CalibrationConfig(jitter=0.5)
        with pytest.raises(ValueError):
            CalibrationConfig(trials=0)


class TestRoundTrips:
    def test_calibration_config_round_trip(self):
        config = CalibrationConfig(trials=7, jitter=0.25)
        assert CalibrationConfig.from_dict(config.to_dict()) == config


class TestEffectiveBandwidthSeam:
    def test_profile_times_link_scale(self):
        server = DataServer(0, bandwidth=100.0, disk_capacity=4000.0)
        assert server.bandwidth == pytest.approx(100.0)
        server.apply_profile(
            ServerProfile(server_id=0, bandwidth=80.0, disk_throughput=60.0)
        )
        assert server.bandwidth == pytest.approx(80.0)
        assert server.disk_throughput == pytest.approx(60.0)
        server.set_link_scale(0.5)
        # Calibration and degradation compose multiplicatively.
        assert server.bandwidth == pytest.approx(40.0)
        assert server.degraded
        server.set_link_scale(1.0)
        assert server.bandwidth == pytest.approx(80.0)
        assert not server.degraded

    def test_build_servers_applies_profile(self):
        profile = identity_profile(SMALL_SYSTEM)
        scaled = ClusterProfile(
            profiles=tuple(
                ServerProfile(
                    server_id=sp.server_id,
                    bandwidth=sp.bandwidth * 0.9,
                    disk_throughput=sp.disk_throughput,
                    storage=sp.storage,
                )
                for sp in profile.profiles
            ),
            calibrated=True,
        )
        servers = SMALL_SYSTEM.build_servers(scaled)
        for server, nominal in zip(servers, SMALL_SYSTEM.server_bandwidths):
            assert server.nominal_bandwidth == pytest.approx(nominal)
            assert server.bandwidth == pytest.approx(0.9 * nominal)
