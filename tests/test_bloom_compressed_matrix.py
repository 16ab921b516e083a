"""Tests for wire-format sizes and the vectorised filter matrix."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.compressed import (
    BYTES_PER_INDEX,
    compressed_filter_size,
    patch_size,
    raw_bitmap_size,
    sparse_size,
)
from repro.bloom.hashing import PAPER_M, BloomHasher
from repro.bloom.matrix import FilterMatrix

from tests.oracles.bloom import BloomFilter


class TestSizes:
    def test_raw_bitmap_paper_size(self):
        # 11,542 bits -> 1,443 bytes ~ 1.43 KB (paper).
        assert raw_bitmap_size(PAPER_M) == 1443

    def test_sparse_cheaper_for_few_bits(self):
        assert compressed_filter_size(10, PAPER_M) == 10 * BYTES_PER_INDEX

    def test_raw_cheaper_for_many_bits(self):
        assert compressed_filter_size(5000, PAPER_M) == raw_bitmap_size(PAPER_M)

    def test_crossover_point(self):
        crossover = raw_bitmap_size(PAPER_M) // BYTES_PER_INDEX
        assert compressed_filter_size(crossover, PAPER_M) <= raw_bitmap_size(PAPER_M)
        assert (
            compressed_filter_size(crossover + 1, PAPER_M) == raw_bitmap_size(PAPER_M)
        )

    def test_free_rider_null_filter_is_free(self):
        assert compressed_filter_size(0, PAPER_M) == 0

    def test_patch_size(self):
        assert patch_size(0) == 0
        assert patch_size(7) == 14

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            raw_bitmap_size(0)
        with pytest.raises(ValueError):
            sparse_size(-1)
        with pytest.raises(ValueError):
            patch_size(-1)


class TestFilterMatrix:
    @pytest.fixture
    def hasher(self):
        return BloomHasher(m=512, k=4)

    def test_set_row_and_match(self, hasher):
        mat = FilterMatrix(3, hasher)
        f = BloomFilter(hasher)
        f.add("hit")
        mat.set_row_positions(1, f.set_bits())
        match = mat.match_all(hasher.positions_array(["hit"]))
        assert list(match) == [False, True, False]

    def test_match_requires_all_terms(self, hasher):
        mat = FilterMatrix(2, hasher)
        f = BloomFilter(hasher)
        f.add("a")
        mat.set_row_positions(0, f.set_bits())
        g = BloomFilter(hasher)
        g.add_all(["a", "b"])
        mat.set_row_positions(1, g.set_bits())
        assert list(mat.match_all(hasher.positions_array(["a", "b"]))) == [False, True]

    def test_matches_scalar_filter_semantics(self, hasher):
        """Matrix results agree with per-filter contains_all for random data."""
        rng = np.random.default_rng(0)
        n = 20
        mat = FilterMatrix(n, hasher)
        filters = []
        vocab = [f"w{i}" for i in range(30)]
        for s in range(n):
            f = BloomFilter(hasher)
            f.add_all(rng.choice(vocab, size=rng.integers(0, 10), replace=False))
            filters.append(f)
            mat.set_row_positions(s, f.set_bits())
        for _ in range(50):
            terms = list(rng.choice(vocab, size=rng.integers(1, 4), replace=False))
            got = mat.match_all(hasher.positions_array(terms))
            want = [f.contains_all(terms) for f in filters]
            assert list(got) == want

    def test_flip_bits_applies_patch(self, hasher):
        mat = FilterMatrix(1, hasher)
        mat.flip_bits(0, [3, 8, 10])
        assert mat.row_bits(0)[3] and mat.row_bits(0)[8] and mat.row_bits(0)[10]
        mat.flip_bits(0, [8])
        assert not mat.row_bits(0)[8]

    def test_flip_bits_multiple_in_same_byte(self, hasher):
        mat = FilterMatrix(1, hasher)
        mat.flip_bits(0, [0, 1, 2, 7])  # all in byte 0
        for p in (0, 1, 2, 7):
            assert mat.row_bits(0)[p]

    def test_flip_empty_is_noop(self, hasher):
        mat = FilterMatrix(1, hasher)
        mat.flip_bits(0, [])
        assert not mat.row_bits(0).any()

    def test_row_bits_roundtrip(self, hasher):
        mat = FilterMatrix(2, hasher)
        f = BloomFilter(hasher)
        f.add_all(["x", "y"])
        mat.set_row_positions(0, f.set_bits())
        assert np.array_equal(mat.row_bits(0), f.bits_view())

    def test_empty_positions_match_everything(self, hasher):
        mat = FilterMatrix(3, hasher)
        assert mat.match_all(np.array([], dtype=np.int64)).all()

    def test_position_out_of_range(self, hasher):
        mat = FilterMatrix(1, hasher)
        with pytest.raises(ValueError):
            mat.match_all(np.array([hasher.m]))
        with pytest.raises(ValueError):
            mat.flip_bits(0, [-1])

    def test_set_columns_validation(self, hasher):
        mat = FilterMatrix(4, hasher)
        with pytest.raises(ValueError, match="source outside 1 .. 2"):
            mat.set_columns(1, 2, np.array([1, 3]), np.array([[0], [1]]))
        with pytest.raises(ValueError, match="out of range"):
            mat.set_columns(1, 2, np.array([1]), np.array([[hasher.m]]))
        with pytest.raises(ValueError, match="out of range"):
            mat.set_row_positions(0, [-1])
        assert not mat.match_all(np.array([0])).any()

    def test_set_columns_writes_exactly_its_block(self, hasher):
        """Pairs in any order, repeats included; the block's other bits and
        every column outside it are cleared or left alone as promised."""
        mat = FilterMatrix(5, hasher)
        mat.set_row_positions(0, [7])
        mat.set_row_positions(3, [9])
        n_set = mat.set_columns(
            1, 3, np.array([2, 1, 2]), np.array([[5, 6], [6, 6], [5, 100]])
        )
        assert n_set.tolist() == [1, 3, 0]
        on = {s: set(np.flatnonzero(mat.row_bits(s)).tolist()) for s in range(5)}
        assert on == {0: {7}, 1: {6}, 2: {5, 6, 100}, 3: set(), 4: set()}

    @given(
        st.lists(
            st.integers(min_value=0, max_value=511), min_size=0, max_size=40, unique=True
        )
    )
    @settings(max_examples=50)
    def test_property_flip_twice_identity(self, positions):
        hasher = BloomHasher(m=512, k=4)
        mat = FilterMatrix(1, hasher)
        rng = np.random.default_rng(1)
        initial = rng.random(512) < 0.3
        mat.set_row_positions(0, np.flatnonzero(initial))
        mat.flip_bits(0, positions)
        mat.flip_bits(0, positions)
        assert np.array_equal(mat.row_bits(0), initial)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=511), min_size=1, max_size=20, unique=True
        )
    )
    @settings(max_examples=50)
    def test_property_match_all_iff_bits_set(self, positions):
        hasher = BloomHasher(m=512, k=4)
        mat = FilterMatrix(2, hasher)
        bits = np.zeros(512, dtype=bool)
        bits[positions] = True
        mat.set_row_positions(0, positions)  # row 0 has exactly these bits
        assert mat.match_all(np.array(positions))[0]
        missing = np.array(positions[:1])
        partial = bits.copy()
        partial[missing] = False
        mat.set_row_positions(1, np.flatnonzero(partial))
        assert not mat.match_all(np.array(positions))[1]
