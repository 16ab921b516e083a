"""Tests for one node's ads repository: a row of the dense ``AdsState``.

The row is read through the tests' :class:`StateRow`; every write is the
``AdsState`` array call with a one-element array (the helpers below), so the
quirk tests can run one body against the product and its object model."""

import numpy as np
import pytest

import dataclasses

from repro.asap.ads import Ad, AdType
from repro.asap.protocol import AsapParams
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.simulation.config import scaled_config
from repro.workload.content import ContentIndex, Document
from repro.workload.interests import InterestState, topic_bits

from tests.oracles.repository import AdsRepository, CacheEntry, StateRow


def make_repo(owner, interests, store, capacity=None):
    """One row of a fresh dense state: the product's per-node repository."""
    bits = InterestState([interests] * store.n_nodes).bitmasks
    return StateRow(AdsState(store.n_nodes, bits, store, capacity), owner)


def accept(repo, ad, now):
    """``(stored, evicted sources)`` of one ad at one receiver."""
    if isinstance(repo, AdsRepository):
        return repo.accept(ad, now)
    stored, evicted = repo.state.accept(ad, now, np.array([repo.owner]))
    return bool(stored[0]), [source for _, source in evicted]


def adopt(repo, supplier, sources, now):
    """The ads exchange of the row's owner with one ``supplier`` offering
    ``sources``: ``(adopted per supplier, evicted sources)``."""
    offered = np.zeros((1, repo.state.n), dtype=bool)
    offered[0, sources] = True
    return repo.state.exchange(repo.owner, np.array([supplier]), offered, now)


def mark_behind(repo, source):
    """The source patched past the cache: a patch that reached nobody."""
    if isinstance(repo, AdsRepository):
        repo.mark_behind(source)
    else:
        repo.state.mark_missed(source, np.array([], dtype=np.int64))


def remove(repo, source):
    if isinstance(repo, AdsRepository):
        repo.remove(source)
    else:
        repo.state.remove(repo.owner, source)


def lookup(repo, positions, match):
    if isinstance(repo, AdsRepository):
        return repo.lookup(positions, match)
    return repo.lookup(match)


#: The quirk tests run against the product row and its object model.
BOTH = pytest.mark.parametrize(
    "make", [make_repo, AdsRepository], ids=["product", "oracle"]
)


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


def make_entry(source, version, topics, cached_at):
    return CacheEntry(source, version, frozenset(topics), cached_at)


def refresh_ad(source, topics, version):
    return Ad(
        source=source, ad_type=AdType.REFRESH, topics=frozenset(topics), version=version
    )


class TestAccept:
    def test_interested_full_ad_cached(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, evicted = accept(repo, full_ad(1, {0}), now=1.0)
        assert stored and not evicted
        assert 1 in repo
        assert repo.entry(1).version == 0

    def test_uninterested_ad_ignored(self, store):
        repo = make_repo(owner=0, interests={3}, store=store)
        stored, _ = accept(repo, full_ad(1, {0}), now=1.0)
        assert not stored and 1 not in repo

    def test_own_ad_ignored(self, store):
        repo = make_repo(owner=1, interests={0}, store=store)
        stored, _ = accept(repo, full_ad(1, {0}), now=1.0)
        assert not stored

    def test_topic_overlap_is_enough(self, store):
        repo = make_repo(owner=0, interests={0, 5}, store=store)
        stored, _ = accept(repo, full_ad(1, {0, 1}), now=1.0)
        assert stored

    def test_sequential_patch_applies(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=0), now=1.0)
        stored, _ = accept(repo, patch_ad(1, {0}, version=1), now=2.0)
        assert stored
        assert repo.entry(1).version == 1

    def test_patch_without_base_ignored(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, _ = accept(repo, patch_ad(1, {0}, version=1), now=1.0)
        assert not stored and 1 not in repo

    def test_patch_gap_marks_behind(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=0), now=1.0)
        accept(repo, patch_ad(1, {0}, version=3), now=2.0)
        assert 1 in repo.behind
        assert repo.entry(1).version == 0  # cannot merge across the gap

    def test_old_patch_is_noop(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=5), now=1.0)
        accept(repo, patch_ad(1, {0}, version=3), now=2.0)
        assert repo.entry(1).version == 5
        assert 1 not in repo.behind

    def test_refresh_updates_recency_and_detects_gap(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=0), now=1.0)
        accept(repo, refresh_ad(1, {0}, version=0), now=5.0)
        assert repo.entry(1).cached_at == 5.0
        assert 1 not in repo.behind
        accept(repo, refresh_ad(1, {0}, version=2), now=6.0)
        assert 1 in repo.behind

    def test_refresh_without_base_ignored(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        stored, _ = accept(repo, refresh_ad(1, {0}, version=0), now=1.0)
        assert not stored

    def test_full_ad_clears_behind(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=0), now=1.0)
        mark_behind(repo, 1)
        accept(repo, full_ad(1, {0}, version=0), now=2.0)
        assert 1 not in repo.behind


class TestSnapshotMerge:
    """A neighbour's or the source's copy of an ad, the two ways the product
    merges one: an absent source is adopted from a supplier's row, a held
    one is brought up to date by a repair pull."""

    def test_accept_snapshot(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.state.accept(full_ad(1, {0}), 1.0, np.array([3]))
        (adopted,), evicted = adopt(repo, 3, [1], 1.0)
        assert adopted.tolist() == [1] and not len(evicted)
        assert 1 in repo and repo.entry(1).version == 0

    def test_snapshot_older_version_ignored(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=2), now=1.0)
        code = topic_bits({0})
        repo.state.accept_repair(np.array([0]), 1, 1, code, 2.0)
        assert repo.entry(1).version == 2  # never a downgrade ...
        assert repo.entry(1).cached_at == 2.0  # ... but the pull renews it
        repo.state.accept_repair(np.array([0]), 1, 3, code, 3.0)
        assert repo.entry(1).version == 3

    def test_repair_leaves_an_uninterested_peer_alone(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}, version=2), now=1.0)
        code = topic_bits({1})
        repo.state.accept_repair(np.array([0]), 1, 3, code, 2.0)
        assert repo.entry(1) == make_entry(1, 2, {0}, 1.0)

    def test_snapshot_behind_current_marked(self, store):
        # Advance source 1's filter to version 1.
        idx = store.content
        doc = Document(doc_id=50, class_id=0, keywords=("extra",))
        idx.register_document(doc)
        idx.place(1, 50, notify=False)
        store.apply_content_change(1, doc, added=True)
        repo = make_repo(owner=0, interests={0}, store=store)
        repo.state.accept(full_ad(1, {0}, version=0), 1.0, np.array([3]))
        adopt(repo, 3, [1], 1.0)
        assert 1 in repo.behind


class TestEviction:
    def test_lru_eviction(self, store):
        repo = make_repo(owner=0, interests={0}, store=store, capacity=2)
        accept(repo, full_ad(1, {0}), now=1.0)
        accept(repo, full_ad(2, {0}), now=2.0)
        _, evicted = accept(repo, full_ad(3, {0}), now=3.0)
        assert evicted == [1]  # oldest out
        assert set(repo.sources()) == {2, 3}

    def test_refresh_protects_from_eviction(self, store):
        repo = make_repo(owner=0, interests={0}, store=store, capacity=2)
        accept(repo, full_ad(1, {0}), now=1.0)
        accept(repo, full_ad(2, {0}), now=2.0)
        accept(repo, refresh_ad(1, {0}, version=0), now=2.5)  # renew 1
        _, evicted = accept(repo, full_ad(3, {0}), now=3.0)
        assert evicted == [2]

    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            AsapParams(cache_capacity=0)
        config = scaled_config("asap_rw", "random", n_peers=50)
        with pytest.raises(ValueError, match="cache_capacity"):
            dataclasses.replace(
                config, asap=dataclasses.replace(config.asap, cache_capacity=-3)
            )

    @BOTH
    def test_ties_evict_the_earliest_inserted(self, store, make):
        """A bootstrap ads exchange stamps many entries with one ``now``:
        the victim among equals is the one inserted first."""
        store = SourceFilterStore(5, store.content)
        repo = make(owner=0, interests={0}, store=store, capacity=3)
        for source in (3, 1, 2):  # insertion order, not id order
            accept(repo, full_ad(source, {0}), now=5.0)
        assert list(repo.sources()) == [3, 1, 2]
        # Re-storing an existing source keeps its position ...
        accept(repo, full_ad(3, {0}), now=5.0)
        assert list(repo.sources()) == [3, 1, 2]
        # ... while remove + re-insert moves it to the end.
        remove(repo, 1)
        accept(repo, full_ad(1, {0}), now=5.0)
        assert list(repo.sources()) == [3, 2, 1]
        _, evicted = accept(repo, full_ad(4, {0}), now=5.0)
        assert evicted == [3]  # first inserted, although re-stored later
        _, evicted = accept(repo, full_ad(3, {0}), now=5.0)
        assert evicted == [2]  # 1 went behind 2 when it was re-inserted
        assert list(repo.sources()) == [1, 4, 3]


class TestBehindIsStoredState:
    @BOTH
    def test_offline_content_change_marks_nobody(self, store, make):
        """A source that changes content while offline bumps the store but
        disseminates nothing: its cachers are *not* behind -- ``behind`` is
        what deliveries told the cache, never ``version < store.version``
        -- until a refresh or patch reaches them."""
        by_refresh = make(owner=0, interests={0}, store=store)
        by_patch = make(owner=3, interests={0}, store=store)
        for repo in (by_refresh, by_patch):
            accept(repo, store.make_full_ad(1), now=1.0)
        doc = Document(doc_id=60, class_id=0, keywords=("offline-kw",))
        store.content.register_document(doc)
        store.content.place(1, 60, notify=False)
        store.apply_content_change(1, doc, added=True)  # patch never delivered
        assert store.version(1) == 1
        for repo in (by_refresh, by_patch):
            assert repo.entry(1).version == 0
            assert 1 not in repo.behind
            # Evaluated against the *current* filter, like any fresh entry.
            pos = store.hasher.positions_array(["offline-kw"])
            assert lookup(repo, pos, store.match_current(pos)) == [1]
        accept(by_refresh, store.make_refresh_ad(1), now=2.0)
        assert 1 in by_refresh.behind
        doc2 = Document(doc_id=61, class_id=0, keywords=("later-kw",))
        store.content.register_document(doc2)
        store.content.place(1, 61, notify=False)
        accept(by_patch, store.apply_content_change(1, doc2, added=True), now=3.0)
        assert 1 in by_patch.behind  # v2 on a v0 entry: a gap


class TestLookup:
    def test_lookup_current_entries(self, store):
        repo = make_repo(owner=0, interests={0, 1}, store=store)
        accept(repo, full_ad(1, {0}, version=0, n_set=store.n_set_bits(1)), now=1.0)
        pos = store.hasher.positions_array(["rock", "live"])
        hits = lookup(repo, pos, store.match_current(pos))
        assert hits == [1]

    def test_lookup_misses_uncached_source(self, store):
        repo = make_repo(owner=0, interests={0, 1}, store=store)
        pos = store.hasher.positions_array(["rock"])
        assert lookup(repo, pos, store.match_current(pos)) == []

    def test_lookup_behind_entry_uses_old_version(self, store):
        """A cache that missed a removal patch still matches the old content."""
        repo = make_repo(owner=0, interests={0, 1}, store=store)
        accept(repo, full_ad(1, {0}, version=0), now=1.0)
        # Source 1 removes its only doc -> patch v1 that repo never sees.
        doc = store.content.document(1)
        store.content.remove(1, 1, notify=False)
        store.apply_content_change(1, doc, added=False)
        mark_behind(repo, 1)
        pos = store.hasher.positions_array(["rock"])
        hits = lookup(repo, pos, store.match_current(pos))
        assert hits == [1]  # matches at cached version 0 (stale, as designed)

    def test_lookup_excludes_owner(self, store):
        repo = make_repo(owner=1, interests={0, 1}, store=store)
        pos = store.hasher.positions_array(["rock"])
        assert lookup(repo, pos, store.match_current(pos)) == []

    def test_remove(self, store):
        repo = make_repo(owner=0, interests={0}, store=store)
        accept(repo, full_ad(1, {0}), now=1.0)
        remove(repo, 1)
        assert 1 not in repo
        remove(repo, 1)  # idempotent
