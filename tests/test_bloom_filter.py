"""Tests for the plain and counting Bloom filter oracles (``tests/oracles/bloom.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.hashing import BloomHasher

from tests.oracles.bloom import BloomFilter, CountingBloomFilter

SMALL = BloomHasher(m=1024, k=4)

terms_strategy = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=8), min_size=0, max_size=30
)


class TestBloomFilter:
    def test_no_false_negatives(self):
        f = BloomFilter(SMALL)
        words = ["rock", "jazz", "pop", "metal"]
        f.add_all(words)
        for w in words:
            assert w in f

    def test_empty_filter_contains_nothing(self):
        f = BloomFilter(SMALL)
        assert "anything" not in f
        assert f.n_set == 0

    def test_contains_all(self):
        f = BloomFilter(SMALL)
        f.add_all(["a", "b"])
        assert f.contains_all(["a", "b"])
        assert f.contains_all([])  # vacuous

    def test_clear(self):
        f = BloomFilter(SMALL)
        f.add("x")
        f.clear()
        assert f.n_set == 0

    def test_set_and_flip_positions(self):
        f = BloomFilter(SMALL)
        f.set_positions([3, 7])
        assert set(f.set_bits().tolist()) == {3, 7}
        f.flip_positions([7, 9])
        assert set(f.set_bits().tolist()) == {3, 9}

    def test_fill_ratio_and_fpr(self):
        f = BloomFilter(SMALL)
        assert f.false_positive_rate() == 0.0
        f.add("something")
        assert 0 < f.fill_ratio() <= 4 / 1024
        assert f.false_positive_rate() < 1e-8

    def test_copy_is_independent(self):
        f = BloomFilter(SMALL)
        f.add("x")
        g = f.copy()
        g.add("y")
        assert f != g
        assert "y" not in f

    def test_union(self):
        f, g = BloomFilter(SMALL), BloomFilter(SMALL)
        f.add("a")
        g.add("b")
        u = f.union(g)
        assert "a" in u and "b" in u

    def test_union_hasher_mismatch(self):
        with pytest.raises(ValueError):
            BloomFilter(SMALL).union(BloomFilter(BloomHasher(m=2048, k=4)))

    def test_empirical_fpr_near_prediction(self):
        """At the designed fill, observed FPR should be near (n_set/m)^k."""
        hasher = BloomHasher(m=2048, k=4)
        f = BloomFilter(hasher)
        f.add_all(f"member-{i}" for i in range(350))
        predicted = f.false_positive_rate()
        trials = 4000
        fp = sum(1 for i in range(trials) if f"absent-{i}" in f)
        observed = fp / trials
        assert observed == pytest.approx(predicted, rel=0.5, abs=0.01)

    @given(terms_strategy)
    @settings(max_examples=50)
    def test_property_no_false_negatives(self, words):
        f = BloomFilter(SMALL)
        f.add_all(words)
        assert all(w in f for w in words)


class TestCountingBloomFilter:
    def test_add_remove_roundtrip(self):
        c = CountingBloomFilter(SMALL)
        c.add("song")
        assert "song" in c
        c.remove("song")
        assert "song" not in c
        assert c.n_set == 0

    def test_multiplicity(self):
        c = CountingBloomFilter(SMALL)
        c.add("kw")
        c.add("kw")
        c.remove("kw")
        assert "kw" in c  # one insertion remains

    def test_remove_absent_raises(self):
        c = CountingBloomFilter(SMALL)
        with pytest.raises(ValueError):
            c.remove("never-added")

    def test_bitmap_projection(self):
        c = CountingBloomFilter(SMALL)
        c.add_all(["a", "b"])
        bitmap = c.bitmap()
        assert "a" in bitmap and "b" in bitmap
        assert bitmap.n_set == c.n_set

    def test_diff_positions_tracks_changes(self):
        c = CountingBloomFilter(SMALL)
        before = c.bitmap_bits().copy()
        c.add("new-doc-keyword")
        diff = c.diff_positions(before)
        assert set(diff.tolist()) == set(SMALL.positions("new-doc-keyword"))

    def test_diff_positions_empty_when_unchanged(self):
        c = CountingBloomFilter(SMALL)
        c.add("x")
        snapshot = c.bitmap_bits().copy()
        c.add("x")  # count changes but bitmap does not
        assert len(c.diff_positions(snapshot)) == 0

    def test_diff_positions_length_check(self):
        c = CountingBloomFilter(SMALL)
        with pytest.raises(ValueError):
            c.diff_positions(np.zeros(10, dtype=bool))

    def test_as_tuples(self):
        c = CountingBloomFilter(SMALL)
        c.add("z")
        tuples = dict(c.as_tuples())
        for pos in SMALL.positions("z"):
            assert tuples[pos] >= 1

    @given(terms_strategy, terms_strategy)
    @settings(max_examples=50)
    def test_property_remove_restores_bitmap(self, base, extra):
        """Adding then removing ``extra`` restores the exact bitmap."""
        c = CountingBloomFilter(SMALL)
        c.add_all(base)
        before = c.bitmap_bits().copy()
        c.add_all(extra)
        c.remove_all(extra)
        assert np.array_equal(c.bitmap_bits(), before)

    @given(terms_strategy)
    @settings(max_examples=50)
    def test_property_patch_reconstructs_bitmap(self, added):
        """flip(diff) applied to the old bitmap yields the new bitmap."""
        c = CountingBloomFilter(SMALL)
        c.add_all(["seed1", "seed2"])
        old = c.bitmap_bits().copy()
        c.add_all(added)
        diff = c.diff_positions(old)
        reconstructed = BloomFilter(SMALL)
        reconstructed.set_positions(np.nonzero(old)[0])
        reconstructed.flip_positions(diff)
        assert np.array_equal(reconstructed.bits_view(), c.bitmap_bits())
