"""Tests for ad representation and the source-filter store."""

import numpy as np
import pytest

from repro.asap.ads import Ad, AdType
from repro.asap.store import SourceFilterStore
from repro.bloom.compressed import compressed_filter_size
from repro.bloom.hashing import BloomHasher
from repro.search.base import AD_HEADER_BYTES
from repro.sim.metrics import TrafficCategory
from repro.workload.content import ContentIndex, Document



def match_at_version(store, source, version, positions):
    """Does ``source``'s filter as of ``version`` contain all ``positions``?
    Read the way a lookup reads it: off that version's matrix column."""
    column = store.columns_of(np.array([source]), np.array([version]))[0]
    return bool(store.match_current(np.asarray(positions))[column])


class TestAd:
    def test_full_ad_size(self):
        ad = Ad(
            source=1,
            ad_type=AdType.FULL,
            topics=frozenset({0}),
            version=0,
            n_set_bits=10,
            filter_bits=11542,
        )
        assert ad.payload_bytes() == compressed_filter_size(10, 11542)
        assert ad.size_bytes() == AD_HEADER_BYTES + 20

    def test_patch_ad_size(self):
        ad = Ad(
            source=1,
            ad_type=AdType.PATCH,
            topics=frozenset({0}),
            version=1,
            changed_positions=(3, 8, 9),
        )
        assert ad.payload_bytes() == 6
        assert ad.category is TrafficCategory.PATCH_AD

    def test_refresh_ad_is_header_only(self):
        ad = Ad(source=1, ad_type=AdType.REFRESH, topics=frozenset({0}), version=2)
        assert ad.payload_bytes() == 0
        assert ad.size_bytes() == AD_HEADER_BYTES
        assert ad.category is TrafficCategory.REFRESH_AD

    def test_patch_requires_positions(self):
        with pytest.raises(ValueError):
            Ad(source=1, ad_type=AdType.PATCH, topics=frozenset(), version=1)

    def test_non_patch_rejects_positions(self):
        with pytest.raises(ValueError):
            Ad(
                source=1,
                ad_type=AdType.FULL,
                topics=frozenset(),
                version=0,
                changed_positions=(1,),
            )

    def test_negative_version_rejected(self):
        with pytest.raises(ValueError):
            Ad(source=1, ad_type=AdType.FULL, topics=frozenset(), version=-1)


def make_content():
    idx = ContentIndex()
    idx.register_document(Document(doc_id=1, class_id=0, keywords=("rock", "live")))
    idx.register_document(Document(doc_id=2, class_id=1, keywords=("jazz", "solo")))
    idx.register_document(Document(doc_id=3, class_id=0, keywords=("rock", "studio")))
    idx.place(0, 1)
    idx.place(0, 2)
    idx.place(1, 3)
    # node 2 is a free-rider
    return idx


class TestSourceFilterStore:
    @pytest.fixture
    def store(self):
        return SourceFilterStore(3, make_content())

    def test_bootstrap_filters(self, store):
        pos = store.hasher.positions_array(["rock", "live"])
        match = store.match_current(pos)
        assert match[0] and not match[1] and not match[2]

    def test_topics_from_content(self, store):
        assert store.topics(0) == {0, 1}
        assert store.topics(1) == {0}
        assert store.topics(2) == frozenset()

    def test_free_rider_not_sharer(self, store):
        assert store.is_sharer(0)
        assert not store.is_sharer(2)

    def test_full_ad_minting(self, store):
        ad = store.make_full_ad(0)
        assert ad.ad_type is AdType.FULL
        assert ad.topics == {0, 1}
        assert ad.version == 0
        assert ad.n_set_bits == store.n_set_bits(0) > 0

    def test_free_rider_ads_are_none(self, store):
        assert store.make_full_ad(2) is None
        assert store.make_refresh_ad(2) is None

    def test_content_add_produces_patch(self, store):
        content = store.content
        doc = Document(doc_id=10, class_id=2, keywords=("newkw",))
        content.register_document(doc)
        content.place(1, 10, notify=False)
        ad = store.apply_content_change(1, doc, added=True)
        assert ad is not None and ad.ad_type is AdType.PATCH
        assert ad.version == 1
        assert store.version(1) == 1
        assert set(ad.changed_positions) == set(store.hasher.positions("newkw"))
        assert 2 in ad.topics  # topics now include the new class

    def test_matrix_updated_after_patch(self, store):
        content = store.content
        doc = Document(doc_id=10, class_id=0, keywords=("fresh",))
        content.register_document(doc)
        content.place(1, 10, notify=False)
        store.apply_content_change(1, doc, added=True)
        pos = store.hasher.positions_array(["fresh"])
        assert store.match_current(pos)[1]

    def test_removal_patch_and_history(self, store):
        content = store.content
        doc = content.document(3)
        content.remove(1, 3, notify=False)
        ad = store.apply_content_change(1, doc, added=False)
        assert ad is not None
        pos = store.hasher.positions_array(["studio"])
        assert not store.match_current(pos)[1]
        # Historical version 0 still matched.
        assert match_at_version(store, 1, 0, pos)
        assert not match_at_version(store, 1, 1, pos)

    def test_no_patch_when_bitmap_unchanged(self, store):
        """Adding a doc whose keywords are already covered changes counts
        but not the bitmap -> no patch ad."""
        content = store.content
        doc = Document(doc_id=11, class_id=0, keywords=("rock", "live"))
        content.register_document(doc)
        content.place(0, 11, notify=False)
        ad = store.apply_content_change(0, doc, added=True)
        assert ad is None
        assert store.version(0) == 0

    def test_match_at_version_multiple_patches(self, store):
        content = store.content
        d1 = Document(doc_id=20, class_id=0, keywords=("alpha",))
        d2 = Document(doc_id=21, class_id=0, keywords=("beta",))
        for d in (d1, d2):
            content.register_document(d)
            content.place(1, d.doc_id, notify=False)
        store.apply_content_change(1, d1, added=True)  # -> v1
        store.apply_content_change(1, d2, added=True)  # -> v2
        pos_a = store.hasher.positions_array(["alpha"])
        pos_b = store.hasher.positions_array(["beta"])
        assert not match_at_version(store, 1, 0, pos_a)
        assert match_at_version(store, 1, 1, pos_a)
        assert not match_at_version(store, 1, 1, pos_b)
        assert match_at_version(store, 1, 2, pos_b)

    def test_refresh_ad_carries_current_version(self, store):
        content = store.content
        doc = Document(doc_id=30, class_id=0, keywords=("gamma",))
        content.register_document(doc)
        content.place(1, 30, notify=False)
        store.apply_content_change(1, doc, added=True)
        ad = store.make_refresh_ad(1)
        assert ad.version == 1

    def test_new_sharer_from_free_rider(self, store):
        """A free-rider that starts sharing gets a filter lazily."""
        content = store.content
        doc = Document(doc_id=40, class_id=3, keywords=("delta",))
        content.register_document(doc)
        content.place(2, 40, notify=False)
        ad = store.apply_content_change(2, doc, added=True)
        assert ad is not None
        assert store.is_sharer(2)
        assert store.topics(2) == {3}
