"""Content-index oracle: the dict-of-sets index the simulator kept before
its int32 columns.

Documents in a dict, an inverted keyword index of sets, per-document
holder sets and per-node document sets, with the copy-on-write ``fork``
that shared the placement sets until a side changed one.  Every query
answers in sets; ``tests/test_content_differential.py`` holds the column
index equal to it.
"""

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.workload.content import Document

__all__ = ["DictContentIndex"]


class DictContentIndex:
    """The dict-of-sets index: documents, keyword -> documents, document ->
    holders and node -> documents, each a dict of Python sets."""

    def __init__(self) -> None:
        self._documents: Dict[int, Document] = {}
        self._holders: Dict[int, Set[int]] = {}
        self._node_docs: Dict[int, Set[int]] = {}
        self._kw_docs: Dict[str, Set[int]] = {}
        self._forked = False
        # The two placement maps as they stood at this index's last fork
        # (or its own creation by one), which both sides then read and
        # neither writes; None if it never forked.
        self._shared: Tuple[Dict[int, Set[int]], Dict[int, Set[int]]] | None = None

    def fork(self) -> "DictContentIndex":
        """An index whose placements change apart from this one's.

        Nothing is copied: the documents and the keyword index are shared
        for good, so the fork registers no documents, and the placement maps
        and their sets are shared copy-on-write.  Whichever side first
        changes a placement copies the two maps (pointers only), and each
        set the first time it changes it, so neither side ever writes what
        the other reads.
        """
        twin = DictContentIndex.__new__(DictContentIndex)
        twin._documents = self._documents
        twin._kw_docs = self._kw_docs
        twin._holders, twin._node_docs = self._holders, self._node_docs
        twin._forked = True
        self._shared = twin._shared = (self._holders, self._node_docs)
        return twin

    def _writable(self, doc_id: int, node: int) -> Tuple[Set[int], Set[int]]:
        """``doc_id``'s holder set and ``node``'s document set, each this
        index's own: copied first if the last fork shares it."""
        if self._shared is None:
            return self._holders[doc_id], self._node_docs.setdefault(node, set())
        shared_holders, shared_docs = self._shared
        if self._holders is shared_holders:
            self._holders, self._node_docs = dict(shared_holders), dict(shared_docs)
        holders = self._holders[doc_id]
        if holders is shared_holders.get(doc_id):
            holders = self._holders[doc_id] = set(holders)
        docs = self._node_docs.get(node)
        if docs is None or docs is shared_docs.get(node):
            docs = self._node_docs[node] = set(docs or ())
        return holders, docs

    # ------------------------------------------------------------- documents
    def fill(
        self,
        documents: Iterable[Document],
        copies: Iterable[Tuple[int, int]] = (),
    ) -> None:
        """Register ``documents``, then place each ``(node, doc_id)`` copy.

        The index's one construction path: :meth:`register_document` and
        :meth:`place` are its one-item cases, so every dict and set fills in
        the order those calls, made item by item, would fill it.  Each item
        is checked before it is written; an error leaves the items before
        it in place.
        """
        known, holders, kw_docs = self._documents, self._holders, self._kw_docs
        for doc in documents:
            if self._forked:
                raise ValueError("a forked index shares its documents read-only")
            doc_id = doc.doc_id
            if doc_id in known:
                raise ValueError(f"document {doc_id} already registered")
            known[doc_id] = doc
            holders[doc_id] = set()
            for kw in doc.keywords:
                docs = kw_docs.get(kw)
                if docs is None:
                    kw_docs[kw] = {doc_id}
                else:
                    docs.add(doc_id)
        for node, doc_id in copies:
            if doc_id not in known:
                raise KeyError(f"unknown document {doc_id}")
            if node in self._holders[doc_id]:
                raise ValueError(f"node {node} already holds document {doc_id}")
            held, docs = self._writable(doc_id, node)
            held.add(node)
            docs.add(doc_id)

    def register_document(self, doc: Document) -> None:
        """Register document metadata (does not place it on any node)."""
        self.fill((doc,))

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]

    @property
    def n_documents(self) -> int:
        return len(self._documents)

    def all_documents(self) -> Iterable[Document]:
        return self._documents.values()

    # ------------------------------------------------------------ placement
    def place(self, node: int, doc_id: int, notify: bool = False) -> None:
        """Node starts sharing a copy of ``doc_id``."""
        self.fill((), ((node, doc_id),))

    def remove(self, node: int, doc_id: int, notify: bool = False) -> None:
        """Node stops sharing its copy of ``doc_id``."""
        if doc_id not in self._documents:
            raise KeyError(f"unknown document {doc_id}")
        if node not in self._holders[doc_id]:
            raise ValueError(f"node {node} does not hold document {doc_id}")
        holders, docs = self._writable(doc_id, node)
        holders.discard(node)
        docs.discard(doc_id)

    # --------------------------------------------------------------- queries
    def holders(self, doc_id: int) -> FrozenSet[int]:
        return frozenset(self._holders.get(doc_id, ()))

    def docs_on(self, node: int) -> FrozenSet[int]:
        return frozenset(self._node_docs.get(node, ()))

    def copies(self) -> Tuple[List[int], List[int]]:
        """Every placed copy as aligned ``(nodes, doc_ids)`` lists, node by
        node in the index's order."""
        nodes: List[int] = []
        doc_ids: List[int] = []
        for node, docs in self._node_docs.items():
            nodes += [node] * len(docs)
            doc_ids += docs
        return nodes, doc_ids

    def docs_matching(self, terms: Iterable[str]) -> Set[int]:
        """Documents containing ALL ``terms`` (the paper's match semantics)."""
        term_list = list(terms)
        if not term_list:
            return set()
        sets = [self._kw_docs.get(t, set()) for t in term_list]
        smallest = min(sets, key=len)
        result = set(smallest)
        for s in sets:
            if s is not smallest:
                result &= s
            if not result:
                break
        return result

    def nodes_matching(self, terms: Iterable[str]) -> Set[int]:
        """Nodes holding at least one document that matches all ``terms``."""
        result: Set[int] = set()
        for doc_id in self.docs_matching(terms):
            result |= self._holders[doc_id]
        return result

    def node_matches(self, node: int, terms: Iterable[str]) -> bool:
        """Does ``node`` hold a single document containing all ``terms``?

        This is the content-confirmation check: Bloom-filter hits where a
        node holds every term but across *different* documents must fail it
        (Section III-C's motivating example).
        """
        docs = self._node_docs.get(node)
        if not docs:
            return False
        matching = self.docs_matching(terms)
        return bool(matching & docs)

    def node_keywords(self, node: int) -> Counter:
        """Keyword multiset of all documents shared by ``node`` (K_p)."""
        counts: Counter = Counter()
        for doc_id in self._node_docs.get(node, ()):
            counts.update(self._documents[doc_id].keywords)
        return counts

    def holds_keywords(self, node: int, terms: Iterable[str]) -> bool:
        """Is every one of ``terms`` a keyword of some document ``node``
        shares?"""
        return set(terms) <= self.node_keywords(node).keys()

    def node_classes(self, node: int) -> Set[int]:
        """Semantic classes represented in a node's shared content."""
        return {
            self._documents[d].class_id for d in self._node_docs.get(node, ())
        }

    # ----------------------------------------------------------- statistics
    def mean_replica_count(self) -> float:
        """Average number of copies per document (paper reports 1.28)."""
        if not self._holders:
            return 0.0
        placed = [len(h) for h in self._holders.values() if h]
        return float(sum(placed) / len(placed)) if placed else 0.0

    def single_copy_fraction(self) -> float:
        """Fraction of placed documents with exactly one copy (paper: 89%)."""
        placed = [len(h) for h in self._holders.values() if h]
        if not placed:
            return 0.0
        return sum(1 for c in placed if c == 1) / len(placed)


def synthesize_reference(params, rng):
    """``synthesize_content``'s draws, in its order, filled into the dict
    index one ``Document`` at a time: ``(index, interests, free_rider)``."""
    import numpy as np

    from repro.workload.edonkey import (
        _build_vocab,
        calibrate_replica_distribution,
        make_document,
    )
    from repro.workload.interests import CLASS_WEIGHTS, N_CLASSES, assign_interests

    n = params.n_peers
    free_rider = rng.random(n) < params.free_rider_fraction
    if free_rider.all():
        free_rider[int(rng.integers(n))] = False
    interests = assign_interests(
        n, free_rider, rng,
        min_interests=params.min_interests, max_interests=params.max_interests,
    )
    sharers_by_class: List[List[int]] = [[] for _ in range(N_CLASSES)]
    for node in range(n):
        if not free_rider[node]:
            for c in interests[node]:
                sharers_by_class[c].append(node)
    pools = [np.array(s, dtype=np.int64) for s in sharers_by_class]
    n_sharers = int(np.count_nonzero(~free_rider))
    n_docs = max(1, int(round(n_sharers * params.avg_docs_per_peer / params.mean_copies)))
    pmf = calibrate_replica_distribution(
        params.mean_copies, params.single_copy_fraction, params.max_copies
    )
    copy_counts = rng.choice(np.arange(1, params.max_copies + 1), size=n_docs, p=pmf)
    weights = CLASS_WEIGHTS * np.array([len(pool) > 0 for pool in pools])
    doc_classes = rng.choice(N_CLASSES, size=n_docs, p=weights / weights.sum())
    vocab = _build_vocab(N_CLASSES, params.vocab_per_class)
    index = DictContentIndex()
    for doc_id, c in enumerate(doc_classes.tolist()):
        index.register_document(
            make_document(
                doc_id, c, vocab[c], rng,
                min_kw=params.min_class_keywords, max_kw=params.max_class_keywords,
                zipf_s=params.keyword_zipf_s,
            )
        )
        pool = pools[c]
        k = min(int(copy_counts[doc_id]), len(pool))
        if k == 1:
            index.place(int(pool[rng.integers(len(pool))]), doc_id)
        elif k > 1:
            for node in rng.choice(pool, size=k, replace=False).tolist():
                index.place(node, doc_id)
    return index, interests, free_rider
