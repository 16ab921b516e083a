"""Synthesis of the eDonkey-like content distribution.

The original trace (Le Fessant et al., IPTPS'04: 923,000 files on 37,000
peers, probed November 2003) is not publicly available.  We synthesise a
distribution matching every statistic the paper extracts from it:

* **Replication**: average ~1.28 copies per document, 89% of documents with
  exactly one copy (Section V-A) -- the property that makes random walk and
  GSA struggle.  :func:`calibrate_replica_distribution` solves for a
  power-law replica tail hitting both numbers exactly.
* **Interest clustering** (observation 4, Section III-A): a document of
  class c is replicated on peers interested in c, so ads flow to the nodes
  that later query for their topics.
* **Free-riders** (observation 3): a configurable fraction of peers share
  nothing, have null content filters, and receive random interests.

Keyword model: every document carries one distinctive title token (unique to
the document) plus a few class-vocabulary tokens drawn Zipf-fashion, so
queries range from highly selective (title token included) to broad
(class tokens only) -- mirroring keyword search over file names.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.workload.content import ContentIndex, Document, title_key, word_key
from repro.workload.interests import CLASS_WEIGHTS, N_CLASSES, assign_interests
from repro.workload.sampling import Table, draw_distinct, zipf_table

__all__ = [
    "ContentDistribution",
    "EdonkeyParams",
    "calibrate_replica_distribution",
    "make_document",
    "synthesize_content",
]


@dataclass(frozen=True)
class EdonkeyParams:
    """Knobs of the synthetic eDonkey content distribution."""

    n_peers: int = 10_000
    free_rider_fraction: float = 0.2
    avg_docs_per_peer: float = 25.0  # ~923k files / 37k peers in the trace
    mean_copies: float = 1.28
    single_copy_fraction: float = 0.89
    max_copies: int = 60
    vocab_per_class: int = 300
    min_class_keywords: int = 2
    max_class_keywords: int = 5
    keyword_zipf_s: float = 1.1
    min_interests: int = 1
    max_interests: int = 4

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("need at least two peers")
        if not 0.0 <= self.free_rider_fraction < 1.0:
            raise ValueError("free_rider_fraction must be in [0, 1)")
        if self.mean_copies < 1.0:
            raise ValueError("mean_copies must be >= 1")
        if not 0.0 < self.single_copy_fraction <= 1.0:
            raise ValueError("single_copy_fraction must be in (0, 1]")
        if not 0 < self.avg_docs_per_peer < math.inf:
            raise ValueError("avg_docs_per_peer must be positive and finite")
        _check_replica_targets(
            self.mean_copies, self.single_copy_fraction, self.max_copies
        )
        if not math.isfinite(self.keyword_zipf_s):
            raise ValueError("keyword_zipf_s must be finite")
        if self.vocab_per_class < 1:
            raise ValueError("vocab_per_class must be >= 1")
        if not 1 <= self.min_class_keywords <= self.max_class_keywords:
            raise ValueError("need 1 <= min_class_keywords <= max_class_keywords")
        if not 1 <= self.min_interests <= self.max_interests <= N_CLASSES:
            raise ValueError(f"need 1 <= min_interests <= max_interests <= {N_CLASSES}")


@dataclass
class ContentDistribution:
    """The synthesised content snapshot handed to the simulator."""

    params: EdonkeyParams
    index: ContentIndex
    interests: List[Set[int]]  # per node
    free_rider: np.ndarray  # (n,) bool
    class_vocab: List[List[str]]  # per class keyword vocabulary
    next_doc_id: int  # first unused doc id (content-add events extend this)

    @property
    def n_peers(self) -> int:
        return self.params.n_peers

    def sharing_classes(self, node: int) -> Set[int]:
        """Classes the node actually shares content in (Figure 2 input)."""
        return self.index.node_classes(node)


def _check_replica_targets(
    mean_copies: float, single_fraction: float, max_copies: int
) -> None:
    """Raise ``ValueError`` unless some PMF of the calibrated shape meets
    both replica targets."""
    if max_copies < 2:
        raise ValueError("max_copies must be >= 2")
    tail_mass = 1.0 - single_fraction
    if tail_mass <= 0:
        if abs(mean_copies - 1.0) > 1e-9:
            raise ValueError("single_fraction=1 forces mean_copies=1")
        return
    needed_tail_mean = (mean_copies - single_fraction) / tail_mass
    # Tail means outside (2, uniform-mean) are unreachable by c^-a; the
    # uniform mean of 2 .. max_copies is (2 + max_copies) / 2.
    uniform_mean = (2 + max_copies) / 2
    if not 2.0 < needed_tail_mean < uniform_mean:
        raise ValueError(
            f"replica targets unreachable (mean_copies={mean_copies}, "
            f"single_copy_fraction={single_fraction}, max_copies={max_copies}): "
            f"tail mean {needed_tail_mean:.3f} must lie in (2, "
            f"{uniform_mean:.3f}); raise max_copies or adjust targets"
        )


def calibrate_replica_distribution(
    mean_copies: float,
    single_fraction: float,
    max_copies: int,
) -> np.ndarray:
    """PMF over copy counts 1..max_copies hitting both target statistics.

    P(1) = ``single_fraction``; P(c) for c >= 2 follows c^-a with the tail
    exponent ``a`` solved by bisection so the overall mean is
    ``mean_copies``.  Raises if the targets are inconsistent (e.g. a mean
    below what P(1) alone forces).
    """
    _check_replica_targets(mean_copies, single_fraction, max_copies)
    tail_mass = 1.0 - single_fraction
    if tail_mass <= 0:
        pmf = np.zeros(max_copies)
        pmf[0] = 1.0
        return pmf
    needed_tail_mean = (mean_copies - single_fraction) / tail_mass
    cs = np.arange(2, max_copies + 1, dtype=np.float64)

    def tail_mean(a: float) -> float:
        w = cs**-a
        return float(np.sum(cs * w) / np.sum(w))

    lo, hi = 0.0, 50.0  # tail_mean decreases in a
    for _ in range(200):
        mid = (lo + hi) / 2
        if tail_mean(mid) > needed_tail_mean:
            lo = mid
        else:
            hi = mid
    a = (lo + hi) / 2
    w = cs**-a
    pmf = np.empty(max_copies)
    pmf[0] = single_fraction
    pmf[1:] = tail_mass * w / w.sum()
    return pmf


def _build_vocab(n_classes: int, vocab_per_class: int) -> List[List[str]]:
    return [
        [f"c{c}kw{i}" for i in range(vocab_per_class)] for c in range(n_classes)
    ]


def _draw_keywords(
    rng: np.random.Generator, words: Table, min_kw: int, max_kw: int
) -> List[int]:
    """A document's class keywords: a count, then that many distinct
    indices into a class vocabulary drawn from its Zipf table ``words``,
    ascending."""
    n_kw = int(rng.integers(min_kw, max_kw + 1))
    return sorted(draw_distinct(rng, words, min(n_kw, len(words.p))))


def make_document(
    doc_id: int,
    class_id: int,
    class_vocab: Sequence[str],
    rng: np.random.Generator,
    min_kw: int = 2,
    max_kw: int = 5,
    zipf_s: float = 1.1,
) -> Document:
    """Create a document: unique title token + Zipf-drawn class keywords."""
    picked = _draw_keywords(
        rng, zipf_table(len(class_vocab), zipf_s), min_kw, max_kw
    )
    keywords = (f"title{doc_id}",) + tuple(class_vocab[i] for i in picked)
    return Document(doc_id=doc_id, class_id=class_id, keywords=keywords)


def synthesize_content(
    params: EdonkeyParams | None = None,
    rng: Optional[np.random.Generator] = None,
) -> ContentDistribution:
    """Build the full synthetic content distribution.

    The number of distinct documents is chosen so that expected total
    placements = sharers * avg_docs_per_peer given the replica-count mean.
    """
    params = params or EdonkeyParams()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = params.n_peers

    free_rider = rng.random(n) < params.free_rider_fraction
    if free_rider.all():  # keep at least one sharer so the system has content
        free_rider[int(rng.integers(n))] = False
    interests = assign_interests(
        n,
        free_rider,
        rng,
        min_interests=params.min_interests,
        max_interests=params.max_interests,
    )

    # Peers interested in each class (sharers only), for replica placement.
    sharers_by_class: List[List[int]] = [[] for _ in range(N_CLASSES)]
    for node in range(n):
        if free_rider[node]:
            continue
        for c in interests[node]:
            sharers_by_class[c].append(node)
    pools = [np.array(s, dtype=np.int64) for s in sharers_by_class]
    class_has_sharers = np.array([len(pool) > 0 for pool in pools])

    n_sharers = int(np.count_nonzero(~free_rider))
    n_docs = max(1, int(round(n_sharers * params.avg_docs_per_peer / params.mean_copies)))

    replica_pmf = calibrate_replica_distribution(
        params.mean_copies, params.single_copy_fraction, params.max_copies
    )
    copy_counts = rng.choice(
        np.arange(1, params.max_copies + 1), size=n_docs, p=replica_pmf
    )

    # Document classes follow class popularity, restricted to classes that
    # actually have interested sharers to host them.
    class_weights = CLASS_WEIGHTS * class_has_sharers
    class_weights = class_weights / class_weights.sum()
    doc_classes = rng.choice(N_CLASSES, size=n_docs, p=class_weights)

    vocab = _build_vocab(N_CLASSES, params.vocab_per_class)
    v = params.vocab_per_class
    words = zipf_table(v, params.keyword_zipf_s)
    # Each document's keyword draws, then its holder draws, in doc-id order
    # (the content stream's order), as keyword ids and copy columns.
    lengths = np.empty(n_docs, dtype=np.int32)
    n_holders = np.empty(n_docs, dtype=np.int32)
    keys, holders = array("i"), array("i")
    for doc_id, c in enumerate(doc_classes.tolist()):
        picked = _draw_keywords(
            rng, words, params.min_class_keywords, params.max_class_keywords
        )
        keys.append(title_key(doc_id))
        keys.extend([word_key(c * v + i) for i in picked])
        lengths[doc_id] = 1 + len(picked)
        pool = pools[c]
        k = n_holders[doc_id] = min(int(copy_counts[doc_id]), len(pool))
        if k == 1:
            holders.append(int(pool[rng.integers(len(pool))]))
        elif k > 1:
            holders.extend(rng.choice(pool, size=k, replace=False).tolist())
    index = ContentIndex.from_arrays(
        [word for words in vocab for word in words],
        doc_classes.astype(np.int32),
        lengths,
        np.frombuffer(keys, dtype=np.int32),
        np.frombuffer(holders, dtype=np.int32),
        np.repeat(np.arange(n_docs, dtype=np.int32), n_holders),
    )

    return ContentDistribution(
        params=params,
        index=index,
        interests=interests,
        free_rider=free_rider,
        class_vocab=vocab,
        next_doc_id=n_docs,
    )
