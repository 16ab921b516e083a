"""Tests for the per-node ads repository."""

import numpy as np
import pytest

from repro.asap.ads import Ad, AdType
from repro.asap.arena import AdsArena, ArenaRepository
from repro.asap.store import SourceFilterStore
from repro.workload.content import ContentIndex, Document


def make_repo(**kwargs):
    return ArenaRepository(arena=AdsArena(), **kwargs)


@pytest.fixture
def store():
    idx = ContentIndex()
    idx.register_document(Document(doc_id=1, class_id=0, keywords=("rock", "live")))
    idx.register_document(Document(doc_id=2, class_id=1, keywords=("jazz",)))
    idx.place(1, 1)
    idx.place(2, 2)
    return SourceFilterStore(4, idx)


def full_ad(source, topics, version=0, n_set=10):
    return Ad(
        source=source,
        ad_type=AdType.FULL,
        topics=frozenset(topics),
        version=version,
        n_set_bits=n_set,
    )


def patch_ad(source, topics, version, positions=(1, 2)):
    return Ad(
        source=source,
        ad_type=AdType.PATCH,
        topics=frozenset(topics),
        version=version,
        changed_positions=tuple(positions),
    )


def refresh_ad(source, topics, version):
    return Ad(
        source=source, ad_type=AdType.REFRESH, topics=frozenset(topics), version=version
    )


class TestAccept:
    def test_interested_full_ad_cached(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, evicted = repo.accept(full_ad(1, {0}), now=1.0)
        assert stored and not evicted
        assert 1 in repo
        assert repo.entry(1).version == 0

    def test_uninterested_ad_ignored(self, store):
        repo = make_repo(owner=0, interests={3}, store=store)
        stored, _ = repo.accept(full_ad(1, {0}), now=1.0)
        assert not stored and 1 not in repo

    def test_own_ad_ignored(self, store):
        repo = make_repo(owner=1, interests={0}, store=store)
        stored, _ = repo.accept(full_ad(1, {0}), now=1.0)
        assert not stored

    def test_topic_overlap_is_enough(self, store):
        repo = make_repo(owner=0, interests={0, 5}, store=store)
        stored, _ = repo.accept(full_ad(1, {0, 1}), now=1.0)
        assert stored

    def test_sequential_patch_applies(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}, version=0), now=1.0)
        stored, _ = repo.accept(patch_ad(1, {0}, version=1), now=2.0)
        assert stored
        assert repo.entry(1).version == 1

    def test_patch_without_base_ignored(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, _ = repo.accept(patch_ad(1, {0}, version=1), now=1.0)
        assert not stored and 1 not in repo

    def test_patch_gap_marks_behind(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}, version=0), now=1.0)
        repo.accept(patch_ad(1, {0}, version=3), now=2.0)
        assert 1 in repo.behind
        assert repo.entry(1).version == 0  # cannot merge across the gap

    def test_old_patch_is_noop(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}, version=5), now=1.0)
        repo.accept(patch_ad(1, {0}, version=3), now=2.0)
        assert repo.entry(1).version == 5
        assert 1 not in repo.behind

    def test_refresh_updates_recency_and_detects_gap(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}, version=0), now=1.0)
        repo.accept(refresh_ad(1, {0}, version=0), now=5.0)
        assert repo.entry(1).cached_at == 5.0
        assert 1 not in repo.behind
        repo.accept(refresh_ad(1, {0}, version=2), now=6.0)
        assert 1 in repo.behind

    def test_refresh_without_base_ignored(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, _ = repo.accept(refresh_ad(1, {0}, version=0), now=1.0)
        assert not stored

    def test_full_ad_clears_behind(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}, version=0), now=1.0)
        repo.mark_behind(1)
        repo.accept(full_ad(1, {0}, version=0), now=2.0)
        assert 1 not in repo.behind


class TestSnapshotMerge:
    def test_accept_snapshot(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, _ = repo.accept_snapshot(1, version=0, topics=frozenset({0}), now=1.0)
        assert stored and 1 in repo

    def test_snapshot_older_version_ignored(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}, version=2), now=1.0)
        stored, _ = repo.accept_snapshot(1, version=1, topics=frozenset({0}), now=2.0)
        assert not stored
        assert repo.entry(1).version == 2

    def test_snapshot_behind_current_marked(self, store):
        # Advance source 1's filter to version 1.
        idx = store.content
        doc = Document(doc_id=50, class_id=0, keywords=("extra",))
        idx.register_document(doc)
        idx.place(1, 50, notify=False)
        store.apply_content_change(1, doc, added=True)
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept_snapshot(1, version=0, topics=frozenset({0}), now=1.0)
        assert 1 in repo.behind


class TestEviction:
    def test_lru_eviction(self, store):
        repo = make_repo(owner=0, interests={0}, store=store, capacity=2)
        repo.accept(full_ad(1, {0}), now=1.0)
        repo.accept(full_ad(2, {0}), now=2.0)
        _, evicted = repo.accept(full_ad(3, {0}), now=3.0)
        assert evicted == [1]  # oldest out
        assert set(repo.sources()) == {2, 3}

    def test_refresh_protects_from_eviction(self, store):
        repo = make_repo(owner=0, interests={0}, store=store, capacity=2)
        repo.accept(full_ad(1, {0}), now=1.0)
        repo.accept(full_ad(2, {0}), now=2.0)
        repo.accept(refresh_ad(1, {0}, version=0), now=2.5)  # renew 1
        _, evicted = repo.accept(full_ad(3, {0}), now=3.0)
        assert evicted == [2]

    def test_bad_capacity(self, store):
        with pytest.raises(ValueError):
            make_repo(owner=0, interests={0}, store=store, capacity=0)


class TestLookup:
    def test_lookup_current_entries(self, store):
        repo = make_repo(owner=0, interests={0, 1}, store=store)
        repo.accept(full_ad(1, {0}, version=0, n_set=store.n_set_bits(1)), now=1.0)
        pos = store.hasher.positions_array(["rock", "live"])
        hits = repo.lookup(pos, store.match_current(pos))
        assert hits == [1]

    def test_lookup_misses_uncached_source(self, store):
        repo = make_repo(owner=0, interests={0, 1}, store=store)
        pos = store.hasher.positions_array(["rock"])
        assert repo.lookup(pos, store.match_current(pos)) == []

    def test_lookup_behind_entry_uses_old_version(self, store):
        """A cache that missed a removal patch still matches the old content."""
        repo = make_repo(owner=0, interests={0, 1}, store=store)
        repo.accept(full_ad(1, {0}, version=0), now=1.0)
        # Source 1 removes its only doc -> patch v1 that repo never sees.
        doc = store.content.document(1)
        store.content.remove(1, 1, notify=False)
        store.apply_content_change(1, doc, added=False)
        repo.mark_behind(1)
        pos = store.hasher.positions_array(["rock"])
        hits = repo.lookup(pos, store.match_current(pos))
        assert hits == [1]  # matches at cached version 0 (stale, as designed)

    def test_lookup_excludes_owner(self, store):
        repo = make_repo(owner=1, interests={0, 1}, store=store)
        pos = store.hasher.positions_array(["rock"])
        assert repo.lookup(pos, store.match_current(pos)) == []

    def test_remove(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.accept(full_ad(1, {0}), now=1.0)
        repo.remove(1)
        assert 1 not in repo
        repo.remove(1)  # idempotent
