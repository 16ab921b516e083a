"""Tests for documents and the content index."""

import pytest

from repro.workload.content import ContentIndex, Document


def doc(doc_id, class_id=0, keywords=("a",)):
    return Document(doc_id=doc_id, class_id=class_id, keywords=keywords)


class TestDocument:
    def test_requires_keywords(self):
        with pytest.raises(ValueError):
            Document(doc_id=1, class_id=0, keywords=())

    def test_rejects_negative_class(self):
        with pytest.raises(ValueError):
            Document(doc_id=1, class_id=-1, keywords=("x",))

    def test_frozen(self):
        d = doc(1)
        with pytest.raises(AttributeError):
            d.class_id = 2  # type: ignore[misc]


class TestPlacement:
    def test_place_and_holders(self):
        idx = ContentIndex()
        idx.register_document(doc(1))
        idx.place(10, 1)
        assert idx.holders(1) == frozenset({10})
        assert idx.docs_of(10).tolist() == [1]

    def test_duplicate_registration_rejected(self):
        idx = ContentIndex()
        idx.register_document(doc(1))
        with pytest.raises(ValueError):
            idx.register_document(doc(1))

    def test_double_place_rejected(self):
        idx = ContentIndex()
        idx.register_document(doc(1))
        idx.place(10, 1)
        with pytest.raises(ValueError):
            idx.place(10, 1)

    def test_remove(self):
        idx = ContentIndex()
        idx.register_document(doc(1))
        idx.place(10, 1)
        idx.remove(10, 1)
        assert idx.holders(1) == frozenset()
        assert idx.docs_of(10).tolist() == []

    def test_remove_not_held_rejected(self):
        idx = ContentIndex()
        idx.register_document(doc(1))
        with pytest.raises(ValueError):
            idx.remove(10, 1)

    def test_unknown_document(self):
        idx = ContentIndex()
        with pytest.raises(KeyError):
            idx.place(1, 99)
        with pytest.raises(KeyError):
            idx.remove(1, 99)

    def test_notify_is_accepted_and_ignored(self):
        """``notify`` only records the change, whatever its value: the
        runner tells the algorithm itself (``on_content_change``)."""
        idx = ContentIndex()
        idx.register_document(doc(1))
        idx.place(5, 1, notify=True)
        assert idx.holders(1) == {5}
        idx.remove(5, 1, notify=False)
        assert idx.holders(1) == frozenset()


class TestMatching:
    @pytest.fixture
    def idx(self):
        idx = ContentIndex()
        idx.register_document(doc(1, 0, ("rock", "live")))
        idx.register_document(doc(2, 0, ("rock", "studio")))
        idx.register_document(doc(3, 1, ("jazz", "live")))
        idx.place(10, 1)
        idx.place(10, 3)
        idx.place(20, 2)
        return idx

    def test_single_term(self, idx):
        assert set(idx.docs_matching(["rock"]).tolist()) == {1, 2}

    def test_all_terms_required(self, idx):
        assert set(idx.docs_matching(["rock", "live"]).tolist()) == {1}
        assert set(idx.docs_matching(["rock", "jazz"]).tolist()) == set()

    def test_unknown_term(self, idx):
        assert set(idx.docs_matching(["nothing"]).tolist()) == set()

    def test_empty_terms(self, idx):
        assert set(idx.docs_matching([]).tolist()) == set()

    def test_nodes_matching(self, idx):
        assert set(idx.nodes_matching(["rock"]).tolist()) == {10, 20}
        assert set(idx.nodes_matching(["rock", "live"]).tolist()) == {10}

    def test_node_matches_requires_single_doc(self, idx):
        # Node 10 holds "rock live" (doc 1) and "jazz live" (doc 3):
        # it matches ["rock","live"] via doc 1...
        assert idx.node_matches(10, ["rock", "live"])
        # ...but NOT ["rock","jazz"] -- the terms span different documents.
        assert not idx.node_matches(10, ["rock", "jazz"])

    def test_node_matches_empty_node(self, idx):
        assert not idx.node_matches(99, ["rock"])

    def test_node_keywords_multiset(self, idx):
        kws = idx.node_keywords(10)
        assert kws["live"] == 2  # appears in docs 1 and 3
        assert kws["rock"] == 1

    def test_node_classes(self, idx):
        assert idx.node_classes(10) == {0, 1}
        assert idx.node_classes(20) == {0}
        assert idx.node_classes(99) == set()


class TestStatistics:
    def test_replica_stats(self):
        idx = ContentIndex()
        for i in range(10):
            idx.register_document(doc(i, 0, (f"kw{i}",)))
        # 9 single-copy docs + 1 with three copies -> mean 1.2, single 90%.
        for i in range(9):
            idx.place(i, i)
        idx.place(100, 9)
        idx.place(101, 9)
        idx.place(102, 9)
        assert idx.mean_replica_count() == pytest.approx(1.2)
        assert idx.single_copy_fraction() == pytest.approx(0.9)

    def test_stats_empty(self):
        idx = ContentIndex()
        assert idx.mean_replica_count() == 0.0
        assert idx.single_copy_fraction() == 0.0

    def test_unplaced_docs_excluded(self):
        idx = ContentIndex()
        idx.register_document(doc(1))
        idx.register_document(doc(2, 0, ("b",)))
        idx.place(1, 1)
        assert idx.mean_replica_count() == 1.0
