"""The 14 semantic classes and node-interest assignment.

Section IV-B classifies all documents into 14 categories "according to their
content semantics" and defines:

* a node's *interests* = the semantic classes of its own shared content
  (free-riders, who share nothing, get randomly assigned interests);
* an ad's *topics* = the classes of the advertising node's content.

The per-class popularity weights below reproduce the skewed shape of the
paper's Figure 2 (a few dominant media classes, a long tail); exact counts
from the original eDonkey trace are unavailable, so the weights are a
documented synthesis choice (DESIGN.md section 3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

from repro.workload.sampling import Table, draw_distinct, table

__all__ = [
    "CLASS_WEIGHTS",
    "InterestState",
    "N_CLASSES",
    "SEMANTIC_CLASSES",
    "assign_interests",
    "class_node_counts",
    "interest_node_counts",
    "interest_similarity",
    "topic_bits",
]

#: The 14 semantic classes (eDonkey-era content categories).
SEMANTIC_CLASSES: tuple = (
    "movie",
    "audio-pop",
    "audio-rock",
    "tv-series",
    "software",
    "games",
    "audio-electronic",
    "ebooks",
    "images",
    "documents",
    "audio-jazz",
    "audio-classical",
    "anime",
    "comics",
)

N_CLASSES = len(SEMANTIC_CLASSES)

#: Skewed class popularity (sums to 1.0) mirroring Figure 2's shape.
CLASS_WEIGHTS = np.array(
    [0.28, 0.18, 0.12, 0.09, 0.07, 0.06, 0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.012, 0.008]
)
assert abs(CLASS_WEIGHTS.sum() - 1.0) < 1e-9
assert len(CLASS_WEIGHTS) == N_CLASSES
_CLASS_TABLE = table(CLASS_WEIGHTS)


def _class_table(weights: np.ndarray | None) -> Table:
    return _CLASS_TABLE if weights is None else table(weights)


def assign_interests(
    n_nodes: int,
    free_rider: np.ndarray,
    rng: np.random.Generator,
    min_interests: int = 1,
    max_interests: int = 4,
    weights: np.ndarray | None = None,
) -> List[Set[int]]:
    """Assign each node a small set of interest classes.

    Sharers receive interests here as a *provisional* sample; the eDonkey
    synthesis then derives their content from these interests, making the
    paper's invariant ("the set of its interests contains all the semantic
    classes of its contents") hold by construction.  Free-riders keep the
    random assignment, exactly as the paper prescribes.
    """
    if len(free_rider) != n_nodes:
        raise ValueError("free_rider mask length mismatch")
    if not 1 <= min_interests <= max_interests:
        raise ValueError("need 1 <= min_interests <= max_interests")
    classes = _class_table(weights)
    interests: List[Set[int]] = []
    for _ in range(n_nodes):
        k = int(rng.integers(min_interests, max_interests + 1))
        interests.append(set(draw_distinct(rng, classes, k)))
    return interests


def topic_bits(topics: Iterable[int]) -> int:
    """A topic (or interest) set as a bitmask, one bit per class."""
    bits = 0
    for topic in topics:
        bits |= 1 << topic
    return bits


class InterestState:
    """Per-node interests as one bitmask per node.

    List-of-set interests are perfect for construction-time sampling but
    hostile to the delivery hot path: answering "which of these 9,000
    visited nodes care about topics T?" by probing Python sets is O(visits)
    pointer chasing.  ``bitmasks[i]`` has bit ``c`` set iff ``c in
    interests[i]``, so interest answers for any node array are one AND
    against :func:`topic_bits` and the memory cost is 8 bytes per node
    instead of one ``set`` object (216+ bytes).
    """

    __slots__ = ("n_nodes", "n_classes", "bitmasks")

    def __init__(
        self, interests: Sequence[Set[int]], n_classes: int | None = None
    ) -> None:
        top = max((max(s) for s in interests if s), default=-1) + 1
        self.n_classes = max(N_CLASSES, top) if n_classes is None else n_classes
        if top > self.n_classes or self.n_classes > 63:
            raise ValueError("interest class out of range")
        self.n_nodes = len(interests)
        self.bitmasks = np.fromiter(
            map(topic_bits, interests), dtype=np.int64, count=self.n_nodes
        )

    def mask_for(self, topics: Iterable[int]) -> np.ndarray:
        """Boolean per-node mask: who intersects the topic set."""
        bits = topic_bits(t for t in topics if 0 <= t < self.n_classes)
        return (self.bitmasks & bits) != 0


def class_node_counts(
    node_classes: Sequence[Iterable[int]], n_classes: int = N_CLASSES
) -> np.ndarray:
    """Figure 2: number of nodes whose shared contents fall in each class.

    ``node_classes[i]`` is the set of classes node ``i`` actually shares
    content in (empty for free-riders).
    """
    counts = np.zeros(n_classes, dtype=np.int64)
    for classes in node_classes:
        for c in classes:
            counts[c] += 1
    return counts


def interest_node_counts(
    interests: Sequence[Iterable[int]], n_classes: int = N_CLASSES
) -> np.ndarray:
    """Figure 3: number of nodes holding each interest."""
    counts = np.zeros(n_classes, dtype=np.int64)
    for node_interests in interests:
        for c in node_interests:
            counts[c] += 1
    return counts


def interest_similarity(
    interests: Sequence[Set[int]],
    node_classes: Sequence[Iterable[int]],
    rng: np.random.Generator,
    n_pairs: int = 2000,
) -> Dict[str, float]:
    """Interest clustering (paper observation 4, Section III-A).

    The mean Jaccard similarity of interests between (a) random peer pairs
    and (b) pairs that share content of one class (``node_classes[i]``, as
    for :func:`class_node_counts`) -- the latter should be markedly higher
    if interest clustering holds.
    """
    n = len(interests)

    def jaccard(a, b) -> float:
        union = a | b
        return len(a & b) / len(union) if union else 0.0

    random_pairs = [
        jaccard(interests[int(u)], interests[int(v)])
        for u, v in rng.integers(0, n, size=(n_pairs, 2))
        if u != v
    ]

    # Pairs connected through a shared document class.
    by_class: Dict[int, List[int]] = {}
    for node, classes in enumerate(node_classes):
        for c in classes:
            by_class.setdefault(c, []).append(node)
    same_class: List[float] = []
    for c in sorted(by_class):
        members = by_class[c]
        if len(members) < 2:
            continue
        for _ in range(min(200, len(members))):
            u, v = rng.choice(members, size=2, replace=False)
            same_class.append(jaccard(interests[int(u)], interests[int(v)]))

    return {
        "same-class jaccard": float(np.mean(same_class)) if same_class else 0.0,
        "random-pair jaccard": float(np.mean(random_pairs)) if random_pairs else 0.0,
    }
