"""The per-simulation source-filter store.

Every sharing peer maintains a counting Bloom filter over its keyword
multiset (paper Section III-B) so that a removed document's keywords can
leave its ad.  Here the :class:`~repro.workload.content.ContentIndex` is
every peer's document multiset already, so a bit's count is never stored: a
bit is set exactly when some document the peer currently shares has a
keyword hashing there.  The store centralises, for all sources:

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

Building the store is array passes over the content index: every distinct
keyword id of the placed documents is hashed once into the hasher's
keyword-position table (:meth:`~repro.bloom.hashing.BloomHasher.rows`), the
copies ``(node, doc)`` join it into ``(node, position)`` pairs one block of
256 nodes at a time, and each block is one scatter into the matrix;
set-bit counts are the packed columns' popcounts and topics the documents'
classes.  A removal reads the node's remaining documents' rows of the same
table.  ``tests/oracles/store.py`` keeps the per-node union loop this
replaced, and ``tests/test_store_bootstrap_differential.py`` holds the two
equal.

The store is pure state: it emits :class:`~repro.asap.ads.Ad` objects on
content changes but never touches the network -- delivery and caching
policy live in :mod:`repro.asap.delivery` and :mod:`repro.asap.state`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.bloom.compressed import BYTES_PER_INDEX, raw_bitmap_size
from repro.bloom.hashing import BloomHasher, PAPER_K, PAPER_M
from repro.bloom.matrix import FilterMatrix
from repro.workload.content import ContentIndex, Document

__all__ = ["FilterVersionError", "SourceFilterStore"]

#: Sources per bootstrap scatter block: a ``(256, m)`` bit block is 2.9 MB
#: at the paper's m.
_BLOCK_NODES = 256


class FilterVersionError(LookupError):
    """A filter version its source never issued was asked for."""


class SourceFilterStore:
    """Filter bitmaps, versions, patch history and topics for all sources.

    The packed :class:`FilterMatrix` is the one copy of every bitmap: a
    source's current filter is its column, its set-bit count one entry of an
    int64 array.  A content change derives its patch from that column and the
    content index (changed first, as the runner does): an added document
    flips its positions that are clear, a removed one those that no document
    the node still shares hashes to.
    """

    def __init__(
        self,
        n_nodes: int,
        content: ContentIndex,
        hasher: Optional[BloomHasher] = None,
    ) -> None:
        # The store's own hasher, keyed by ``content``'s keyword ids.
        hasher = hasher or BloomHasher(PAPER_M, PAPER_K)
        self.hasher = BloomHasher(hasher.m, hasher.k, content)
        self.n_nodes = n_nodes
        self.content = content
        self.matrix = FilterMatrix(n_nodes, self.hasher)
        self._n_set = np.zeros(n_nodes, dtype=np.int64)
        self._version = np.zeros(n_nodes, dtype=np.int64)
        # [source, version] -> matrix column; a source's current version is
        # its own column.  Widened (doubling) as versions are issued.
        self._column = np.arange(n_nodes)[:, None]
        # source -> [(version, changed positions), ...] ascending.
        self._patches: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self._topics: Dict[int, Set[int]] = {}
        self._n_topics = np.zeros(n_nodes, dtype=np.int64)  # their sizes
        self._bootstrap()

    def _bootstrap(self) -> None:
        """Filter columns, set-bit counts and topics of the initial placement.

        The copies ``(node, doc)`` join the documents' rows of the
        hasher's keyword-position table into ``(node, table row)`` pairs one
        block of nodes at a time, so the working set stays a
        ``(_BLOCK_NODES, m)`` bit block and its pairs, and each block is one
        scatter into the matrix.
        """
        nodes, doc_ids = self.content.copies()  # sorted by node
        inside = (nodes >= 0) & (nodes < self.n_nodes)
        nodes, doc_ids = nodes[inside].astype(np.int64), doc_ids[inside]
        ids, copy_doc = np.unique(doc_ids, return_inverse=True)
        n_keywords, keys = self.content.doc_keywords(ids)
        distinct, key_row = np.unique(keys, return_inverse=True)
        rows = self.hasher.rows(distinct.tolist())[key_row]
        table = self.hasher.table
        ends = np.cumsum(n_keywords)
        bounds = np.searchsorted(nodes, np.arange(0, self.n_nodes, _BLOCK_NODES))
        for first, lo, hi in zip(
            range(0, self.n_nodes, _BLOCK_NODES), bounds, [*bounds[1:], len(nodes)]
        ):
            if lo == hi:
                continue
            which = copy_doc[lo:hi]
            count = n_keywords[which]
            # Copy i's keywords are its document's run of ``rows``.
            slots = np.repeat(ends[which] - np.cumsum(count), count)
            slots += np.arange(len(slots))
            block = min(_BLOCK_NODES, self.n_nodes - first)
            self._n_set[first : first + block] = self.matrix.set_columns(
                first, block, np.repeat(nodes[lo:hi], count), table[rows[slots]]
            )
        # Topics: the classes of each sharer's documents.
        classes = self.content.classes()[ids].astype(np.int64)
        n_classes = int(classes.max()) + 1 if len(ids) else 1
        for code in np.unique(nodes * n_classes + classes[copy_doc]).tolist():
            self._topics.setdefault(code // n_classes, set()).add(code % n_classes)
        for node, topics in self._topics.items():
            self._n_topics[node] = len(topics)

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

    def topic_counts(self, sources: np.ndarray) -> np.ndarray:
        """How many topics each of ``sources`` advertises."""
        return self._n_topics[sources]

    def is_sharer(self, source):
        """Free-riders have a null filter and nothing to advertise (a
        source or an array of them)."""
        return self._n_set[source] > 0

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
        """Update the source's filter for a document add/remove the content
        index already shows.

        Returns the patch ad to disseminate, or None when the bitmap did not
        change (e.g. removing a document whose keywords all remain covered by
        other documents -- counting filter semantics).  Raises ``ValueError``,
        before anything is written, when the index or the column disagrees
        with the change.
        """
        docs = self.content.docs_of(node)
        if bool((docs == doc.doc_id).any()) != added:
            raise ValueError(
                f"node {node} {'does not hold' if added else 'still holds'} "
                f"document {doc.doc_id} in the content index: change the "
                f"index before the filter"
            )
        mine = self.hasher.positions_array(doc.keywords)
        is_set = self.matrix.row_bits(node)[mine]
        if added:
            changed = mine[~is_set]
            self._n_set[node] += len(changed)
        else:
            if not is_set.all():
                raise ValueError(
                    f"node {node}'s filter never held document {doc.doc_id}: "
                    f"bit {mine[~is_set][0]} of its keywords is clear"
                )
            # A bit stays set while some document still shared hashes there.
            keys = np.unique(self.content.doc_keywords(docs)[1]).tolist()
            still = self.hasher.rows(keys)
            changed = mine[~np.isin(mine, self.hasher.table[still])]
            self._n_set[node] -= len(changed)
        # Topics track the node's current content classes exactly.
        self._topics[node] = set(self.content.classes()[docs].tolist())
        self._n_topics[node] = len(self._topics[node])
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
            changed_positions=tuple(changed.tolist()),
            filter_bits=self.hasher.m,
        )
