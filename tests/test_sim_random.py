"""Tests for named, seeded random substreams."""

import numpy as np
import pytest

from repro.sim.random import RandomStreams, stable_hash32


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash32("topology") == stable_hash32("topology")

    def test_distinct_names_distinct_hashes(self):
        names = ["topology", "trace", "walkers", "interests", "bloom"]
        hashes = {stable_hash32(n) for n in names}
        assert len(hashes) == len(names)

    def test_range(self):
        for name in ("", "x", "a longer name with spaces"):
            h = stable_hash32(name)
            assert 0 <= h < 2**32


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(seed=7).get("walk").integers(0, 1000, size=50)
        b = RandomStreams(seed=7).get("walk").integers(0, 1000, size=50)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=7).get("walk").integers(0, 1000, size=50)
        b = RandomStreams(seed=8).get("walk").integers(0, 1000, size=50)
        assert not np.array_equal(a, b)

    def test_streams_are_independent_of_creation_order(self):
        s1 = RandomStreams(seed=3)
        _ = s1.get("first").random(100)  # consume another stream heavily
        draw_after = s1.get("second").random(10)

        s2 = RandomStreams(seed=3)
        draw_fresh = s2.get("second").random(10)
        assert np.array_equal(draw_after, draw_fresh)

    def test_get_is_cached(self):
        s = RandomStreams(seed=1)
        assert s.get("x") is s.get("x")

    def test_fresh_resets_stream(self):
        s = RandomStreams(seed=1)
        first = s.get("x").random(5)
        again = s.fresh("x").random(5)
        assert np.array_equal(first, again)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(seed="42")  # type: ignore[arg-type]

    def test_seed_property(self):
        assert RandomStreams(seed=99).seed == 99
