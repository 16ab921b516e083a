"""Source-filter-store oracles: historical membership by per-position
probes, and each source's filter as the union of its documents' keyword
positions, built one node at a time."""

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

import numpy as np

from repro.asap.store import SourceFilterStore
from repro.bloom.hashing import BloomHasher
from repro.workload.content import ContentIndex

from tests.oracles.bloom import positions_reference

__all__ = [
    "bootstrap_reference",
    "match_at_version_reference",
    "patch_history",
    "removed_positions_reference",
    "shared_positions_reference",
]


def shared_positions_reference(
    content: ContentIndex, hasher: BloomHasher, node: int
) -> Set[int]:
    """The bit positions ``node``'s current documents hash to."""
    pos: Set[int] = set()
    for doc_id in content.docs_of(node).tolist():
        for term in content.document(doc_id).keywords:
            pos.update(positions_reference(term, hasher.m, hasher.k))
    return pos


def bootstrap_reference(
    n_nodes: int, content: ContentIndex, hasher: BloomHasher
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Set[int]]]:
    """What a fresh store over ``content`` holds: its packed current filter
    columns ``(ceil(m / 8), n_nodes)``, set-bit counts and topics, from the
    per-node union loop."""
    cols = np.zeros(((hasher.m + 7) // 8, n_nodes), dtype=np.uint8)
    n_set = np.zeros(n_nodes, dtype=np.int64)
    topics: Dict[int, Set[int]] = {}
    for node in range(n_nodes):
        pos = shared_positions_reference(content, hasher, node)
        if not pos:
            continue
        bits = np.zeros(hasher.m, dtype=bool)
        bits[sorted(pos)] = True
        cols[:, node] = np.packbits(bits, bitorder="little")
        n_set[node] = len(pos)
        topics[node] = content.node_classes(node)
    return cols, n_set, topics


def removed_positions_reference(
    content: ContentIndex, hasher: BloomHasher, node: int, keywords: Sequence[str]
) -> Set[int]:
    """The bits a removed document with ``keywords`` clears in ``node``'s
    filter, once the index no longer shows it: those no document the node
    still shares hashes to."""
    mine: Set[int] = set()
    for term in keywords:
        mine.update(positions_reference(term, hasher.m, hasher.k))
    return mine - shared_positions_reference(content, hasher, node)


def patch_history(
    store: SourceFilterStore, source: int
) -> List[Tuple[int, FrozenSet[int]]]:
    """``source``'s patches as ``[(version, changed positions), ...]``."""
    return [
        (version, frozenset(changed.tolist()))
        for version, changed in store._patches.get(source, ())
    ]


def match_at_version_reference(
    store: SourceFilterStore, source: int, version: int, positions: Sequence[int]
) -> bool:
    """Does ``source``'s filter as of ``version`` contain all ``positions``?

    A position's value at ``version`` is its current bit XOR the parity of
    the flips recorded by patches issued after ``version``; probed one
    position at a time, with no ``current`` hint.
    """
    flipped_odd: Set[int] = set()
    for v, changed in patch_history(store, source):
        if v > version:
            flipped_odd.symmetric_difference_update(changed)
    bits = store.matrix.row_bits(source)
    for pos in positions:
        bit = bool(bits[int(pos)])
        if int(pos) in flipped_odd:
            bit = not bit
        if not bit:
            return False
    return True
