"""Unit tests for client profiles and staging capacity."""

import math

import pytest

from repro.cluster.client import ClientProfile, staging_capacity


class TestClientProfile:
    def test_defaults(self):
        c = ClientProfile()
        assert c.buffer_capacity == 0.0
        assert c.receive_bandwidth == 30.0

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            ClientProfile(buffer_capacity=-1.0)

    def test_nonpositive_receive_rejected(self):
        with pytest.raises(ValueError):
            ClientProfile(receive_bandwidth=0.0)

    def test_infinite_buffer_allowed(self):
        c = ClientProfile(buffer_capacity=math.inf)
        assert math.isinf(c.buffer_capacity)

    def test_frozen(self):
        c = ClientProfile()
        with pytest.raises(Exception):
            c.buffer_capacity = 5.0


class TestStagingCapacity:
    def test_paper_operating_point(self):
        # 20 % of a 3600 Mb average video = 720 Mb of client disk.
        assert staging_capacity(0.2, 3600.0) == pytest.approx(720.0)

    def test_zero_fraction(self):
        assert staging_capacity(0.0, 1000.0) == 0.0

    def test_full_video(self):
        assert staging_capacity(1.0, 1000.0) == 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            staging_capacity(-0.1, 100.0)
        with pytest.raises(ValueError):
            staging_capacity(0.2, 0.0)
