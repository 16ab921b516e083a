"""Model-based (hypothesis stateful) tests for the ASAP cache machinery.

The system under test is the (SourceFilterStore, repository) pair: a
source's content evolves through document adds/removes (emitting patch
ads, or nothing while the source is offline), while a cache receives an
arbitrary interleaving of full ads, patch ads, refresh ads and nothing at
all.  Every delivery goes to the product's dense-state row *and* to the
object model in ``tests/oracles/repository.py``, which must agree on every
return value and on the resulting state.  The *model* is brutally simple:
the ground-truth keyword multiset per source.  Invariant checked after every
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

from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.bloom.hashing import BloomHasher
from repro.workload.content import ContentIndex, Document
from repro.workload.interests import InterestState

from tests.oracles.bloom import BloomFilter
from tests.oracles.repository import AdsRepository, StateRow, snapshot
from tests.test_asap_ads_store import match_at_version

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
        bits = InterestState([{0}, {0}]).bitmasks
        self.repo = StateRow(AdsState(2, bits, self.store), CACHER)
        self.oracle = AdsRepository(
            owner=CACHER, interests={0}, store=self.store
        )
        # The source changed content while offline: the store moved on and
        # no patch was ever minted for delivery.
        self.unannounced = False
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

    def _accept(self, ad) -> None:
        now = self._now()
        stored, evicted = self.repo.state.accept(ad, now, np.array([CACHER]))
        assert (bool(stored[0]), evicted) == self.oracle.accept(ad, now)

    # ----------------------------------------------------------- content ops
    @rule(
        kws=st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3, unique=True),
        online=st.booleans(),
    )
    def add_document(self, kws, online) -> None:
        doc = Document(doc_id=self.next_doc, class_id=0, keywords=tuple(kws))
        self.next_doc += 1
        self.index.register_document(doc)
        self.index.place(SOURCE, doc.doc_id, notify=False)
        self.docs_on_source[doc.doc_id] = doc
        ad = self.store.apply_content_change(SOURCE, doc, added=True)
        if ad is not None:
            self._snapshot_current()
            if online:
                self.pending_patches.append(ad)
            else:
                self.unannounced = True

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
            self._accept(ad)
            self.unannounced = False

    @rule()
    def deliver_next_patch(self) -> None:
        if self.pending_patches:
            self._accept(self.pending_patches.pop(0))

    @rule()
    def drop_next_patch(self) -> None:
        """The delivery missed this cache: it must become 'behind'."""
        if self.pending_patches:
            ad = self.pending_patches.pop(0)
            self.repo.state.mark_missed(ad.source, np.array([], dtype=np.int64))
            self.oracle.mark_behind(ad.source)

    @rule()
    def deliver_refresh(self) -> None:
        ad = self.store.make_refresh_ad(SOURCE)
        if ad is not None:
            self._accept(ad)
            self.unannounced = False

    # -------------------------------------------------------------- invariant
    @invariant()
    def product_matches_object_model(self) -> None:
        assert snapshot(self.repo) == snapshot(self.oracle)

    @invariant()
    def clock_only_moves_forward(self) -> None:
        """The dense state ranks recency by clock tick and refuses a write
        from the past: the machine must never generate one."""
        times = self.repo.state._times
        assert times == sorted(set(times)) and times[-1] <= self.clock

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
            got = match_at_version(self.store, SOURCE, entry.version, positions)
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
            # Nobody told the cache yet -- allowed only while a patch is
            # still pending delivery, or the source changed offline and
            # has not re-announced itself (``behind`` is what deliveries
            # said, not ``version < store.version``).
            assert self.pending_patches or self.unannounced, (
                "cache silently stale: store moved on, no pending delivery, "
                "no behind flag"
            )


CacheConsistencyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestCacheConsistency = CacheConsistencyMachine.TestCase
