"""Unit tests for named random substreams."""

import numpy as np

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(seed=7).get("arrivals").random(10)
        b = RandomStreams(seed=7).get("arrivals").random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=7).get("arrivals").random(10)
        b = RandomStreams(seed=8).get("arrivals").random(10)
        assert not np.array_equal(a, b)

    def test_different_keys_are_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.get("arrivals").random(10)
        b = streams.get("placement").random(10)
        assert not np.array_equal(a, b)

    def test_stream_unaffected_by_other_key_usage(self):
        """The decoupling property: consuming one stream must not
        perturb another (this is the whole point of the class)."""
        s1 = RandomStreams(seed=42)
        arrivals_1 = s1.get("arrivals").random(5)

        s2 = RandomStreams(seed=42)
        s2.get("placement").random(1000)  # unrelated consumption
        arrivals_2 = s2.get("arrivals").random(5)
        assert np.array_equal(arrivals_1, arrivals_2)

    def test_get_returns_same_generator_instance(self):
        streams = RandomStreams(seed=1)
        assert streams.get("x") is streams.get("x")

    def test_fresh_restarts_the_stream_get_continues(self):
        """``fresh`` builds the stream ``get`` caches, uncached: each
        call starts at the first draw and leaves the cache alone."""
        streams = RandomStreams(seed=5)
        first = streams.fresh("retry.req7").random(3)
        assert np.array_equal(streams.fresh("retry.req7").random(3), first)
        assert streams.fresh("retry.req7") is not streams.fresh("retry.req7")
        assert np.array_equal(streams.get("retry.req7").random(3), first)
        assert not np.array_equal(streams.get("retry.req7").random(3), first)
        assert list(streams._streams) == ["retry.req7"]

    def test_advanced_fresh_stream_continues_the_sequence(self):
        """What the retry queue relies on: a new generator advanced past
        *n* draws yields draw *n + 1* onwards of the same stream."""
        whole = RandomStreams(seed=5).fresh("retry.req7").random(6)
        resumed = RandomStreams(seed=5).fresh("retry.req7")
        resumed.bit_generator.advance(4)
        assert np.array_equal(resumed.random(2), whole[4:])
