"""Documents, keywords and the content index, as int32 columns.

A :class:`Document` is an immutable description: a semantic class and a
few keywords (a distinctive title token plus class-vocabulary tokens, as
file names tokenise into search terms).  The :class:`ContentIndex` -- who
holds what, for searches, ASAP's confirmations and the trace generator --
holds no Python object per document or copy:

* a keyword is an id, ``2 * w`` for vocabulary word ``w`` and ``2 * t + 1``
  for the title token ``title{t}``, which is never stored as a string;
  strings appear only in query terms, Bloom hashing and :meth:`document`;
* documents are a class and a keyword-id run per id, shared by an index
  and its forks, with the keyword -> documents postings derived once;
* copies are ``(node, doc)`` columns sorted by document, with a
  per-document and a per-node CSR, never written; a content change
  tombstones one or appends to a short log of added copies, both the
  index's own, so :meth:`fork` shares the columns and copies the log.

The runner changes the index first, then tells the algorithm
(``on_content_change``), which for ASAP issues the patch ad.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["ContentIndex", "Document", "title_key", "word_key"]

#: Document ids are dense from 0; a larger one is refused, not allocated.
MAX_DOC_ID = 1 << 24
_TITLE = re.compile(r"title(0|[1-9][0-9]{0,8})")
_EMPTY = np.empty(0, dtype=np.int32)
_EMPTY.setflags(write=False)


@dataclass(frozen=True)
class Document:
    """An immutable shared document."""

    doc_id: int
    class_id: int
    keywords: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.keywords:
            raise ValueError("a document needs at least one keyword")
        if self.class_id < 0:
            raise ValueError("negative class id")


def word_key(word: int) -> int:
    return 2 * word


def title_key(title: int) -> int:
    return 2 * title + 1


def _runs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Positions ``lo[i] .. hi[i] - 1`` of every ``i``, concatenated."""
    n = hi - lo
    ends = np.cumsum(n)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + n, n)


def _ptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of the ascending ``keys``, each below ``n``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)``, by a sort (several times faster on the few
    hundred nodes a broad query's documents have)."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _grown(column: np.ndarray, size: int, fill: int) -> np.ndarray:
    """``column``, or a copy an eighth longer (at least ``size``) padded
    with ``fill`` if it is shorter than ``size``."""
    if len(column) >= size:
        return column
    out = np.full(max(size, len(column) * 9 // 8 + 64), fill, dtype=column.dtype)
    out[: len(column)] = column
    return out


class _Documents:
    """Every registered document: ``cls[d]`` (-1 if unregistered) and the
    keyword ids ``kw[start[d] : start[d] + length[d]]``."""

    def __init__(self, vocabulary: Sequence[str]) -> None:
        self.words: List[str] = list(vocabulary)
        if any(map(_TITLE.fullmatch, self.words)):
            raise ValueError("a title token is not a vocabulary word")
        self.word_id = {w: i for i, w in enumerate(self.words)}
        self.cls = self.length = self.start = self.kw = np.empty(0, dtype=np.int32)
        self.n_ids = self.n_kw = self.count = 0
        self.frozen = False
        self._postings: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def key(self, term: str, add: bool = False) -> Optional[int]:
        """``term``'s keyword id; None for a word no document has (unless
        ``add`` makes it a vocabulary word)."""
        word = self.word_id.get(term)
        if word is None:
            title = _TITLE.fullmatch(term)
            if title or not add:
                return title_key(int(title[1])) if title else None
            word = self.word_id[term] = len(self.words)
            self.words.append(term)
        return word_key(word)

    def term(self, key: int) -> str:
        return self.words[key >> 1] if key % 2 == 0 else f"title{key >> 1}"

    def runs(self, doc_ids: np.ndarray) -> np.ndarray:
        """The keyword ids of each of ``doc_ids``, concatenated."""
        start = self.start[doc_ids]
        return self.kw[_runs(start, start + self.length[doc_ids])]

    def registered(self, doc_id: int) -> bool:
        return 0 <= doc_id < self.n_ids and self.cls[doc_id] >= 0

    def append(self, doc_ids, classes, lengths, keys) -> None:
        """Register the new, distinct ``doc_ids`` (amortised O(1) each)."""
        top = int(doc_ids.max()) + 1
        self.cls = _grown(self.cls, top, -1)
        self.start, self.length = _grown(self.start, top, 0), _grown(self.length, top, 0)
        self.kw = _grown(self.kw, self.n_kw + len(keys), 0)
        self.cls[doc_ids], self.length[doc_ids] = classes, lengths
        self.start[doc_ids] = self.n_kw + np.cumsum(lengths) - lengths
        self.kw[self.n_kw : self.n_kw + len(keys)] = keys
        self.n_kw += len(keys)
        self.n_ids, self.count = max(self.n_ids, top), self.count + len(doc_ids)
        self._postings = None

    def postings(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ptr, docs)``: keyword ``k``'s documents, ascending, are
        ``docs[ptr[k] : ptr[k + 1]]`` (read-only)."""
        if self._postings is None:
            docs = np.flatnonzero(self.cls[: self.n_ids] >= 0)
            keys = self.runs(docs)
            owner = np.repeat(docs.astype(np.int32), self.length[docs])
            order = np.argsort(keys, kind="stable")  # documents stay ascending
            keys, owner = keys[order], owner[order]
            first = np.ones(len(keys), dtype=bool)  # a keyword listed twice counts once
            first[1:] = (keys[1:] != keys[:-1]) | (owner[1:] != owner[:-1])
            keys, owner = keys[first], owner[first]
            self._postings = (_ptr(keys, int(keys[-1]) + 1 if len(keys) else 0), owner)
            for column in self._postings:
                column.setflags(write=False)
        return self._postings


class ContentIndex:
    """Mutable "who holds what" index over shared document columns."""

    def __init__(self, vocabulary: Sequence[str] = ()) -> None:
        self._docs = _Documents(vocabulary)
        self._set_copies(_EMPTY, _EMPTY)
        self._forked = self._frozen = False

    def _set_copies(self, nodes: np.ndarray, doc_ids: np.ndarray) -> None:
        """The placement this index and its forks are built on, and an
        empty change log: tombstones over it, the documents and the nodes
        whose copies changed (all None until the first change) and added
        copies."""
        order = np.lexsort((nodes, doc_ids))  # a document's holders ascending
        self._node = nodes[order].astype(np.int32)
        self._doc = doc_ids[order].astype(np.int32)
        self._doc_ptr = _ptr(self._doc, self._docs.n_ids)
        self._by_node = np.argsort(self._node, kind="stable").astype(np.int32)
        self._node_ptr = _ptr(self._node, int(self._node.max()) + 1 if len(self._node) else 0)
        self._dead = self._touched = self._touched_nodes = None
        self._add_node = self._add_doc = _EMPTY

    @classmethod
    def from_arrays(cls, vocabulary, classes, lengths, keys, nodes, doc_ids) -> "ContentIndex":
        """Documents ``0 .. len(classes) - 1`` -- ``d`` of class
        ``classes[d]`` with the next ``lengths[d]`` keyword ids of ``keys``
        (:func:`word_key` over ``vocabulary``, :func:`title_key`) -- and
        the copies ``(nodes[i], doc_ids[i])``."""
        index = cls(vocabulary)
        if len(classes):
            if (classes < 0).any() or (lengths < 1).any():
                raise ValueError("a document needs a class and a keyword")
            index._docs.append(np.arange(len(classes)), classes, lengths, keys)
        if len(doc_ids) and not (
            (doc_ids >= 0).all() and (doc_ids < len(classes)).all() and (nodes >= 0).all()
        ):
            raise ValueError("a copy names an unknown document or a negative node")
        pairs = np.sort(nodes.astype(np.int64) << 32 | doc_ids)
        if (pairs[1:] == pairs[:-1]).any():
            raise ValueError("a node holds one document twice")
        index._set_copies(nodes, doc_ids)
        return index

    def fork(self) -> "ContentIndex":
        """An index whose placements change apart from this one's: it
        shares every column, copies the masks of the change log (its
        added-copy columns are replaced on change, never written) and
        registers nothing."""
        twin = ContentIndex.__new__(ContentIndex)
        twin.__dict__.update(self.__dict__)
        if self._dead is not None:
            twin._dead, twin._touched = self._dead.copy(), self._touched.copy()
            twin._touched_nodes = self._touched_nodes.copy()
        twin._forked, twin._frozen = True, False
        return twin

    def freeze(self) -> None:
        """Make the index and its columns read-only (a shared workload's
        index is only forked), with the postings its forks share built."""
        self._frozen = self._docs.frozen = True
        docs = self._docs
        docs.postings()
        for column in (self._node, self._doc, self._doc_ptr, self._by_node,
                       self._node_ptr, docs.cls, docs.start, docs.length, docs.kw):
            column.setflags(write=False)

    # ------------------------------------------------------------- documents
    def register_document(self, doc: Document) -> None:
        """Register document metadata (does not place it on any node)."""
        docs = self._docs
        if self._forked or docs.frozen:
            raise ValueError("a forked index shares its documents read-only")
        if not 0 <= doc.doc_id < MAX_DOC_ID:
            raise ValueError(f"document id {doc.doc_id} outside [0, {MAX_DOC_ID})")
        if docs.registered(doc.doc_id):
            raise ValueError(f"document {doc.doc_id} already registered")
        keys = [docs.key(term, add=True) for term in doc.keywords]
        docs.append(np.array([doc.doc_id]), doc.class_id, len(keys), keys)

    def document(self, doc_id: int) -> Document:
        """Document ``doc_id``, built from its columns."""
        docs = self._docs
        if not docs.registered(doc_id):
            raise KeyError(doc_id)
        start = int(docs.start[doc_id])
        keys = docs.kw[start : start + int(docs.length[doc_id])].tolist()
        return Document(int(doc_id), int(docs.cls[doc_id]), tuple(map(docs.term, keys)))

    @property
    def n_documents(self) -> int:
        return self._docs.count

    def all_documents(self) -> List[Document]:
        """Every registered document, by id."""
        return [self.document(d) for d in np.flatnonzero(self.classes() >= 0).tolist()]

    def classes(self) -> np.ndarray:
        """Class of every document id (-1 where none is registered)."""
        return self._docs.cls[: self._docs.n_ids]

    def doc_keywords(self, doc_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(lengths, keys)``: each document's keyword-id run length, and
        the runs concatenated."""
        return self._docs.length[doc_ids], self._docs.runs(doc_ids)

    def keywords(self, keys: Iterable[int]) -> List[str]:
        """The keyword string of each keyword id."""
        return list(map(self._docs.term, keys))

    # ------------------------------------------------------------ placement
    def _alive(self, positions: np.ndarray) -> np.ndarray:
        return positions if self._dead is None else positions[~self._dead[positions]]

    def _change(self, node: int, doc_id: int) -> Tuple[int, bool, int]:
        """Where the copy ``(node, doc_id)`` about to change is among the
        built copies, whether it is live there, and where it is among the
        added ones (-1: absent); marks ``doc_id`` and ``node`` changed.  A
        frozen index refuses the change."""
        if self._frozen:
            raise ValueError("this index is shared read-only: change a fork()")
        if not self._docs.registered(doc_id):
            raise KeyError(f"unknown document {doc_id}")
        if node < 0:
            raise ValueError(f"negative node {node}")
        at = -1
        if doc_id < len(self._doc_ptr) - 1:
            lo, hi = self._doc_ptr[doc_id], self._doc_ptr[doc_id + 1]
            hit = np.flatnonzero(self._node[lo:hi] == node)
            at = int(lo + hit[0]) if len(hit) else -1
        added = np.flatnonzero((self._add_doc == doc_id) & (self._add_node == node))
        if self._dead is None:
            self._dead = np.zeros(len(self._node), dtype=bool)
            self._touched = np.zeros(self._docs.n_ids, dtype=bool)
            self._touched_nodes = np.zeros(len(self._node_ptr) - 1, dtype=bool)
        self._touched = _grown(self._touched, doc_id + 1, False)
        self._touched_nodes = _grown(self._touched_nodes, node + 1, False)
        self._touched[doc_id] = self._touched_nodes[node] = True
        return at, at >= 0 and not self._dead[at], int(added[0]) if len(added) else -1

    # ``notify`` is not an option: it is accepted and ignored while
    # benchmarks/e2e/traced.py:235/237 passes it.
    def place(self, node: int, doc_id: int, notify: bool = False) -> None:
        """Node starts sharing a copy of ``doc_id``: a tombstoned built
        copy comes back, any other is added to the log."""
        at, live, added = self._change(node, doc_id)
        if live or added >= 0:
            raise ValueError(f"node {node} cannot take another copy of document {doc_id}")
        if at >= 0:
            self._dead[at] = False
        else:
            self._add_doc = np.append(self._add_doc, np.int32(doc_id))
            self._add_node = np.append(self._add_node, np.int32(node))

    def remove(self, node: int, doc_id: int, notify: bool = False) -> None:
        """Node stops sharing its copy of ``doc_id``."""
        at, live, added = self._change(node, doc_id)
        if live:
            self._dead[at] = True
        elif added >= 0:
            self._add_doc = np.delete(self._add_doc, added)
            self._add_node = np.delete(self._add_node, added)
        else:
            raise ValueError(f"node {node} does not hold document {doc_id}")

    # --------------------------------------------------------------- queries
    def nodes_holding(self, doc_ids: np.ndarray) -> np.ndarray:
        """Nodes holding a copy of any of ``doc_ids``, ascending.  The built
        copies of a document this index never changed are one slice."""
        ptr, touched = self._doc_ptr, self._touched
        if len(doc_ids) == 1:  # a title query's
            d = int(doc_ids[0])
            if touched is None or d >= len(touched) or not touched[d]:
                return self._node[ptr[d] : ptr[d + 1]] if d < len(ptr) - 1 else _EMPTY
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        built = doc_ids[doc_ids < len(ptr) - 1]
        if touched is not None and touched[doc_ids[doc_ids < len(touched)]].any():
            nodes = self._node[self._alive(_runs(ptr[built], ptr[built + 1]))]
            wanted = np.zeros(len(touched), dtype=bool)
            wanted[doc_ids[doc_ids < len(wanted)]] = True
            added = self._add_node[wanted[self._add_doc]]
            return _distinct(np.concatenate([nodes, added]))
        return _distinct(self._node[_runs(ptr[built], ptr[built + 1])])

    def holding(self, doc_ids: np.ndarray) -> Callable[[int], bool]:
        """A test of whether a node holds one of ``doc_ids``: membership in
        their holders when they are few (a title query's one), else a look
        at the node's own documents."""
        if len(doc_ids) <= 4:
            return set(self.nodes_holding(doc_ids).tolist()).__contains__
        wanted = set(doc_ids.tolist())
        return lambda node: not wanted.isdisjoint(self.docs_of(node).tolist())

    def docs_of(self, node: int) -> np.ndarray:
        """Documents ``node`` holds, ascending; a node this index never
        changed holds one slice of the built copies."""
        ptr, touched, docs = self._node_ptr, self._touched_nodes, _EMPTY
        if 0 <= node < len(ptr) - 1:
            mine = self._by_node[ptr[node] : ptr[node + 1]]
            if touched is None or node >= len(touched) or not touched[node]:
                return self._doc[mine]
            docs = self._doc[self._alive(mine)]
        if len(self._add_node):
            docs = np.concatenate([docs, self._add_doc[self._add_node == node]])
        return np.sort(docs)

    def holders(self, doc_id: int) -> FrozenSet[int]:
        return frozenset(self.nodes_holding([doc_id]).tolist())

    def copies(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every placed copy as aligned ``(nodes, doc_ids)`` arrays, sorted
        by node, then document."""
        keep = self._alive(np.arange(len(self._node)))
        nodes = np.concatenate([self._node[keep], self._add_node])
        doc_ids = np.concatenate([self._doc[keep], self._add_doc])
        order = np.lexsort((doc_ids, nodes))
        return nodes[order], doc_ids[order]

    def docs_matching(self, terms: Iterable[str]) -> np.ndarray:
        """Documents containing ALL ``terms`` (the paper's match
        semantics), ascending: a title term's documents, each checked
        against its keyword run, or else the shortest posting narrowed by
        the others."""
        docs = self._docs
        keys = [docs.key(t) for t in terms]
        ptr, post = docs.postings()
        if not keys or None in keys or max(keys) >= len(ptr) - 1:
            return _EMPTY
        titles = [k for k in keys if k & 1]
        if titles:
            found, wanted = post[ptr[titles[0]] : ptr[titles[0] + 1]], set(keys)
            if len(wanted) == 1:
                return found
            start, length, kw = docs.start, docs.length, docs.kw
            keep = [
                wanted.issubset(kw[start[d] : start[d] + length[d]].tolist())
                for d in found.tolist()
            ]
            return found if all(keep) else found[keep]
        (size, lo), *others = sorted((ptr[k + 1] - ptr[k], ptr[k]) for k in keys)
        found = post[lo : lo + size]
        for size, lo in others:
            found = np.intersect1d(found, post[lo : lo + size], assume_unique=True)
        return found

    def nodes_matching(self, terms: Iterable[str]) -> np.ndarray:
        """Nodes holding a document that matches all ``terms``, ascending."""
        return self.nodes_holding(self.docs_matching(terms))

    def node_matches(self, node: int, terms: Iterable[str]) -> bool:
        """Does ``node`` hold a single document containing all ``terms``?
        Terms spread over different documents do not match (Section
        III-C's motivating example)."""
        return bool(len(np.intersect1d(self.docs_of(node), self.docs_matching(terms))))

    def node_keywords(self, node: int) -> Counter:
        """Keyword multiset of all documents shared by ``node`` (K_p)."""
        counts = Counter(self._docs.runs(self.docs_of(node)).tolist())
        return Counter({self._docs.term(k): n for k, n in counts.items()})

    def holds_keywords(self, node: int, terms: Iterable[str]) -> bool:
        """Is every one of ``terms`` a keyword of some document ``node``
        shares?  Keyword ids against one gather of the documents' keyword
        runs."""
        docs = self._docs
        keys = [docs.key(t) for t in terms]
        if None in keys:
            return False
        return set(keys).issubset(docs.runs(self.docs_of(node)).tolist())

    def keyword_id(self, term: str) -> Optional[int]:
        """``term``'s keyword id; None for a word no document has (a title
        token of no registered document included)."""
        key = self._docs.key(term)
        if key is not None and key & 1 and not self._docs.registered(key >> 1):
            return None
        return key

    def node_classes(self, node: int) -> Set[int]:
        """Semantic classes represented in a node's shared content."""
        return set(self._docs.cls[self.docs_of(node)].tolist())

    # ----------------------------------------------------------- statistics
    def _placed_counts(self) -> np.ndarray:
        counts = np.bincount(self.copies()[1])
        return counts[counts > 0]

    def mean_replica_count(self) -> float:
        """Average number of copies per placed document (paper: 1.28)."""
        placed = self._placed_counts()
        return float(placed.sum() / len(placed)) if len(placed) else 0.0

    def single_copy_fraction(self) -> float:
        """Fraction of placed documents with exactly one copy (paper: 89%)."""
        placed = self._placed_counts()
        return float(np.count_nonzero(placed == 1) / len(placed)) if len(placed) else 0.0
