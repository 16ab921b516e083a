"""Model-based (hypothesis stateful) tests for the ASAP cache machinery.

The system under test is the (SourceFilterStore, ArenaRepository) pair: a
source's content evolves through document adds/removes (emitting patch
ads), while a cache receives an arbitrary interleaving of full ads, patch
ads, refresh ads and nothing at all.  The *model* is brutally simple: the
ground-truth keyword multiset per source.  Invariant checked after every
step: for any query over current keywords, the repository lookup plus
exact version reconstruction never disagrees with what the cached version
of the filter genuinely contained -- i.e. cached ads answer membership
exactly as the source's filter did at the cached version.
"""

from collections import Counter

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.asap.arena import AdsArena, ArenaRepository
from repro.asap.store import SourceFilterStore
from repro.bloom.filter import BloomFilter
from repro.bloom.hashing import BloomHasher
from repro.workload.content import ContentIndex, Document

SOURCE = 1
CACHER = 0
KEYWORDS = [f"kw{i}" for i in range(8)]


class CacheConsistencyMachine(RuleBasedStateMachine):
    """Interleaves content changes with ad deliveries; checks version math."""

    @initialize()
    def setup(self) -> None:
        self.hasher = BloomHasher(m=512, k=4)
        self.index = ContentIndex()
        self.store = SourceFilterStore(2, self.index, hasher=self.hasher)
        self.repo = ArenaRepository(
            owner=CACHER, interests={0}, store=self.store, arena=AdsArena()
        )
        self.next_doc = 0
        self.docs_on_source: dict = {}  # doc_id -> Document
        self.clock = 0.0
        # Model state: bitmap snapshots per version.
        self.version_bitmaps = {0: np.zeros(512, dtype=bool)}
        self.pending_patches: list = []  # ads not yet delivered

    def _now(self) -> float:
        self.clock += 1.0
        return self.clock

    def _snapshot_current(self) -> None:
        v = self.store.version(SOURCE)
        self.version_bitmaps[v] = self.store.matrix.row_bits(SOURCE)

    # ----------------------------------------------------------- content ops
    @rule(kws=st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3, unique=True))
    def add_document(self, kws) -> None:
        doc = Document(doc_id=self.next_doc, class_id=0, keywords=tuple(kws))
        self.next_doc += 1
        self.index.register_document(doc)
        self.index.place(SOURCE, doc.doc_id, notify=False)
        self.docs_on_source[doc.doc_id] = doc
        ad = self.store.apply_content_change(SOURCE, doc, added=True)
        if ad is not None:
            self.pending_patches.append(ad)
            self._snapshot_current()

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def remove_document(self, pick) -> None:
        if not self.docs_on_source:
            return
        doc_id = sorted(self.docs_on_source)[pick % len(self.docs_on_source)]
        doc = self.docs_on_source.pop(doc_id)
        self.index.remove(SOURCE, doc_id, notify=False)
        ad = self.store.apply_content_change(SOURCE, doc, added=False)
        if ad is not None:
            self.pending_patches.append(ad)
            self._snapshot_current()

    # ------------------------------------------------------------ deliveries
    @rule()
    def deliver_full_ad(self) -> None:
        ad = self.store.make_full_ad(SOURCE)
        if ad is not None:
            self.repo.accept(ad, self._now())

    @rule()
    def deliver_next_patch(self) -> None:
        if self.pending_patches:
            self.repo.accept(self.pending_patches.pop(0), self._now())

    @rule()
    def drop_next_patch(self) -> None:
        """The delivery missed this cache: it must become 'behind'."""
        if self.pending_patches:
            ad = self.pending_patches.pop(0)
            if ad.source in self.repo:
                self.repo.mark_behind(ad.source)

    @rule()
    def deliver_refresh(self) -> None:
        ad = self.store.make_refresh_ad(SOURCE)
        if ad is not None:
            self.repo.accept(ad, self._now())

    # -------------------------------------------------------------- invariant
    @invariant()
    def cached_version_reconstruction_is_exact(self) -> None:
        entry = self.repo.entry(SOURCE)
        if entry is None:
            return
        expected_bits = self.version_bitmaps.get(entry.version)
        assert expected_bits is not None, (
            f"cache claims version {entry.version} which never existed"
        )
        # Reconstructed membership at the cached version must match the
        # genuine bitmap of that version, for every keyword.
        for kw in KEYWORDS:
            positions = self.hasher.positions(kw)
            want = all(expected_bits[p] for p in positions)
            got = self.store.match_at_version(SOURCE, entry.version, positions)
            assert got == want, (
                f"kw={kw} version={entry.version}: reconstruction {got} != "
                f"snapshot {want}"
            )

    @invariant()
    def behind_flag_is_truthful(self) -> None:
        entry = self.repo.entry(SOURCE)
        if entry is None:
            return
        behind = SOURCE in self.repo.behind
        actually_behind = entry.version < self.store.version(SOURCE)
        if behind:
            assert actually_behind or entry.version == self.store.version(SOURCE), (
                "behind flag set while entry is current and store never moved"
            )
        if actually_behind and not behind:
            # An undelivered patch exists but nobody told the cache yet --
            # allowed only while the patch is still pending delivery.
            assert self.pending_patches, (
                "cache silently stale: store moved on, no pending delivery, "
                "no behind flag"
            )


CacheConsistencyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestCacheConsistency = CacheConsistencyMachine.TestCase
