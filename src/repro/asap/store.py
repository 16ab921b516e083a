"""The per-simulation source-filter store.

Every sharing peer maintains a counting Bloom filter over its keyword
multiset (paper Section III-B).  The store centralises, for all sources:

* the counting filter (supports keyword removal on document removal);
* the plain bitmap of the *current* version and of every superseded one,
  each a column of a packed :class:`~repro.bloom.matrix.FilterMatrix`, so
  "which filters match these query terms" is one vectorised call that
  answers for *any historical version* exactly -- which is how cached ads
  that missed patches are evaluated (227 of them per lookup on the paper's
  ASAP(RW) cell, ``BENCH_SCALEUP.json``) without storing per-cacher filter
  snapshots;
* the current version number, the ``(source, version) -> column`` table
  and the patch history ``[(version, changed-bit set), ...]``, which sizes
  the repair pull of a cache that lags;
* the current topic set T (the semantic classes of the node's content).

The store is pure state: it emits :class:`~repro.asap.ads.Ad` objects on
content changes but never touches the network -- delivery and caching
policy live in :mod:`repro.asap.delivery` and :mod:`repro.asap.state`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.bloom.compressed import BYTES_PER_INDEX, raw_bitmap_size
from repro.bloom.filter import CountingBloomFilter
from repro.bloom.hashing import BloomHasher, PAPER_K, PAPER_M
from repro.bloom.matrix import FilterMatrix
from repro.workload.content import ContentIndex, Document

__all__ = ["FilterVersionError", "SourceFilterStore"]


class FilterVersionError(LookupError):
    """A filter version its source never issued was asked for."""


class SourceFilterStore:
    """Counting filters, versions, patch history and topics for all sources.

    The packed :class:`FilterMatrix` is the *authoritative* current-bitmap
    store: bootstrap scatters each source's keyword positions straight into
    its column and the per-source set-bit counts live in one int64 array.  The
    counting filter -- 4 bytes x m = ~46 KB per source, the dominant
    per-source cost at scale -- materialises lazily, copy-on-write style:
    only when a source's content actually churns is its counting copy built
    (by replaying the recorded bootstrap documents, an order-independent
    sum that lands on bit-identical counts), then kept and updated eagerly.
    Sources that never churn -- the vast majority of a run -- stay as one
    packed matrix column plus a count.
    """

    def __init__(
        self,
        n_nodes: int,
        content: ContentIndex,
        hasher: Optional[BloomHasher] = None,
    ) -> None:
        self.hasher = hasher or BloomHasher(PAPER_M, PAPER_K)
        self.n_nodes = n_nodes
        self.content = content
        self.matrix = FilterMatrix(n_nodes, self.hasher)
        self._counting: Dict[int, CountingBloomFilter] = {}
        self._n_set = np.zeros(n_nodes, dtype=np.int64)
        # Initial doc placement per source: the replay source for lazy
        # counting-filter materialisation (documents are immutable, so the
        # ids pin the exact t=0 keyword multiset).
        self._base_docs: Dict[int, Tuple[int, ...]] = {}
        self._version = np.zeros(n_nodes, dtype=np.int64)
        # [source, version] -> matrix column; a source's current version is
        # its own column.  Widened (doubling) as versions are issued.
        self._column = np.arange(n_nodes)[:, None]
        # source -> [(version, changed positions), ...] ascending.
        self._patches: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self._topics: Dict[int, Set[int]] = {}
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Build filter columns and topics from the initial content placement."""
        positions_of = self.hasher.positions
        for node in range(self.n_nodes):
            docs = self.content.docs_on(node)
            if not docs:
                continue
            topics: Set[int] = set()
            pos: Set[int] = set()
            for doc_id in docs:
                doc = self.content.document(doc_id)
                for term in doc.keywords:
                    pos.update(positions_of(term))
                topics.add(doc.class_id)
            self._base_docs[node] = tuple(docs)
            self._topics[node] = topics
            self._n_set[node] = len(pos)
            self.matrix.set_row_positions(
                node, np.fromiter(pos, dtype=np.int64, count=len(pos))
            )

    def _cf(self, node: int) -> CountingBloomFilter:
        """The source's counting filter, materialised on first churn.

        Replaying the bootstrap documents reproduces the eager filter
        exactly: per-bit counts are sums of insertions, so any replay order
        gives identical counts (and therefore identical bitmaps and
        diffs).  Post-materialisation changes apply eagerly, so this runs
        at most once per churned source.
        """
        cf = self._counting.get(node)
        if cf is None:
            cf = CountingBloomFilter(self.hasher)
            for doc_id in self._base_docs.get(node, ()):
                cf.add_all(self.content.document(doc_id).keywords)
            self._counting[node] = cf
        return cf

    # --------------------------------------------------------------- queries
    def version(self, source: int) -> int:
        return int(self._version[source])

    def topics(self, source: int) -> FrozenSet[int]:
        return frozenset(self._topics.get(source, ()))

    def n_set_bits(self, source: int) -> int:
        return int(self._n_set[source])

    def full_ad_payload_bytes(self, sources: np.ndarray) -> np.ndarray:
        """:func:`compressed_filter_size` of each source's current filter."""
        return np.minimum(
            raw_bitmap_size(self.hasher.m), self._n_set[sources] * BYTES_PER_INDEX
        )

    def is_sharer(self, source: int) -> bool:
        """Free-riders have a null filter and nothing to advertise."""
        return bool(self._n_set[source] > 0)

    def patch_history(self, source: int) -> List[Tuple[int, FrozenSet[int]]]:
        return [
            (version, frozenset(changed.tolist()))
            for version, changed in self._patches.get(source, ())
        ]

    def match_current(self, positions: np.ndarray) -> np.ndarray:
        """Which filters contain all positions: entry ``s < n_nodes`` is
        source ``s``'s *current* filter, the rest are superseded versions
        at their :meth:`columns_of`."""
        return self.matrix.match_all(positions)

    def columns_of(self, sources: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """Where :meth:`match_current` answers for ``sources``' filters as
        of ``versions`` (aligned arrays)."""
        unknown = (versions < 0) | (versions > self._version[sources])
        if unknown.any():
            at = int(np.flatnonzero(unknown)[0])
            raise FilterVersionError(
                f"source {sources[at]} never issued filter version "
                f"{versions[at]} (it is at {self._version[sources[at]]})"
            )
        return self._column[sources, versions]

    def missed_patch_bits(self, source: int, versions: np.ndarray) -> np.ndarray:
        """Changed bits of every patch ``source`` issued after each of
        ``versions``: what the repair pull of a cache that old carries."""
        issued = np.cumsum(
            [0] + [len(changed) for _, changed in self._patches.get(source, ())]
        )
        return issued[-1] - issued[versions]

    # -------------------------------------------------------------- ad minting
    def make_full_ad(self, source: int) -> Optional[Ad]:
        """The source's current full ad; None for free-riders (null filter)."""
        if not self.is_sharer(source):
            return None
        return Ad(
            source=source,
            ad_type=AdType.FULL,
            topics=self.topics(source),
            version=self.version(source),
            n_set_bits=self.n_set_bits(source),
            filter_bits=self.hasher.m,
        )

    def make_refresh_ad(self, source: int) -> Optional[Ad]:
        if not self.is_sharer(source):
            return None
        return Ad(
            source=source,
            ad_type=AdType.REFRESH,
            topics=self.topics(source),
            version=self.version(source),
            filter_bits=self.hasher.m,
        )

    def apply_content_change(
        self, node: int, doc: Document, added: bool
    ) -> Optional[Ad]:
        """Update the source's filter for a document add/remove.

        Returns the patch ad to disseminate, or None when the plain bitmap
        did not change (e.g. removing a document whose keywords all remain
        covered by other documents -- counting filter semantics).
        """
        cf = self._cf(node)
        if node not in self._topics:
            self._topics[node] = set()
        before = cf.bitmap_bits().copy()
        if added:
            cf.add_all(doc.keywords)
        else:
            cf.remove_all(doc.keywords)
        changed = cf.diff_positions(before)
        self._n_set[node] = cf.n_set
        # Topics track the node's current content classes exactly.
        self._topics[node] = set(self.content.node_classes(node))
        if len(changed) == 0:
            return None
        self._version[node] += 1
        version = int(self._version[node])
        self._patches.setdefault(node, []).append((version, changed))
        # The superseded version stays searchable: its bits move to a
        # history column before the patch flips the current one.
        if version == self._column.shape[1]:
            self._column = np.concatenate(
                [self._column, np.full_like(self._column, -1)], axis=1
            )
        self._column[node, version - 1 : version + 1] = (
            self.matrix.snapshot(node), node,
        )
        self.matrix.flip_bits(node, changed)
        return Ad(
            source=node,
            ad_type=AdType.PATCH,
            topics=self.topics(node),
            version=version,
            changed_positions=tuple(int(p) for p in sorted(changed)),
            filter_bits=self.hasher.m,
        )
