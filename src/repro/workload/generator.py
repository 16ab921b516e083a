"""Chronological trace construction (Section IV-B, steps 4-6).

The generator walks forward in time laying down events while tracking the
*future* system state (live mask, placements), which is how it honours the
paper's guarantee that "all the search requests are created such that there
is at least one matching document existing in the system at the request
time" -- even under churn and content changes.

State handling: the generator never mutates document *placements* in the
shared :class:`ContentIndex` (the simulation runner replays those); it keeps
them on a private :meth:`~ContentIndex.fork`.  It does, however, *register*
metadata for documents born in content-addition events, so the replayed
events refer to known documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.workload.content import Document
from repro.workload.edonkey import ContentDistribution, make_document
from repro.workload.sampling import Table, draw_one, zipf_table
from repro.workload.trace import (
    ContentChangeEvent,
    JoinEvent,
    LeaveEvent,
    QueryEvent,
    Trace,
    TraceEvent,
)

__all__ = ["TraceParams", "generate_trace"]


@dataclass(frozen=True)
class TraceParams:
    """Knobs of the synthetic query trace.  Defaults are the paper's."""

    n_queries: int = 30_000
    arrival_rate: float = 8.0  # Poisson lambda (requests per second)
    content_change_fraction: float = 0.10
    n_joins: int = 1_000
    n_leaves: int = 1_000
    addition_fraction: float = 0.6  # of content changes, how many are adds
    max_terms: int = 3
    title_term_prob: float = 0.7
    query_zipf_s: float = 0.7  # popularity skew of query targets
    min_live_fraction: float = 0.5  # guard: never drain below this

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise ValueError("need at least one query")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        for name in (
            "content_change_fraction",
            "addition_fraction",
            "title_term_prob",
            "min_live_fraction",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.n_joins < 0 or self.n_leaves < 0:
            raise ValueError("churn counts must be non-negative")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


class _GeneratorState:
    """The generator's private view of future placements and liveness."""

    def __init__(self, dist: ContentDistribution) -> None:
        self.dist = dist
        self.index = dist.index
        n = dist.n_peers
        self.live = np.ones(n, dtype=bool)
        # ``np.flatnonzero(self.live)``, recomputed on churn only: queries
        # outnumber churn events 15 to 1 in the paper's trace.
        self.live_nodes = np.arange(n)
        # Private placements, a fork's change log (placements replayed
        # later must not be affected by generation-time bookkeeping).
        self.copies = self.index.fork()
        # Per class, the query-target Zipf table of its current document
        # count, for this trace only.
        self.zipf_tables: Dict[int, Dict[int, Table]] = {}
        # Per-class document ids in creation order (for Zipf sampling).
        classes = self.index.classes()
        self.class_docs: Dict[int, np.ndarray] = {
            c: np.flatnonzero(classes == c) for c in np.unique(classes[classes >= 0]).tolist()
        }

    # ------------------------------------------------------------ mutation
    def apply_join(self, node: int) -> None:
        self.live[node] = True
        self.live_nodes = np.flatnonzero(self.live)

    def apply_leave(self, node: int) -> None:
        self.live[node] = False
        self.live_nodes = np.flatnonzero(self.live)

    def add_document(self, node: int, doc: Document) -> None:
        self.copies.place(node, doc.doc_id)
        docs = self.class_docs.get(doc.class_id, np.empty(0, dtype=np.int64))
        self.class_docs[doc.class_id] = np.append(docs, doc.doc_id)

    # ------------------------------------------------------------- queries
    def has_live_holder(self, doc_id: int, excluding: int) -> bool:
        live = self.live
        return any(
            h != excluding and live[h]
            for h in self.copies.nodes_holding([doc_id]).tolist()
        )


def _zipf_index(
    rng: np.random.Generator, n: int, s: float, tables: Dict[int, Table]
) -> int:
    """Sample an index in [0, n) with P(i) ~ (i+1)^-s (rank-Zipf).  ``tables``
    keeps one class's table by ``n``: a count it has not seen replaces the
    table, as a class's document count only grows."""
    if n == 1:
        return 0
    dist = tables.get(n)
    if dist is None:
        tables.clear()
        dist = tables[n] = zipf_table(n, s)
    return draw_one(rng, dist)


def _pick_query(
    state: _GeneratorState,
    params: TraceParams,
    rng: np.random.Generator,
    time: float,
) -> Optional[QueryEvent]:
    """Sample a valid (requester, target doc, terms) triple, or None."""
    live_nodes = state.live_nodes
    if len(live_nodes) == 0:
        return None
    for _ in range(40):  # requester attempts
        requester = int(live_nodes[rng.integers(len(live_nodes))])
        interests = list(state.dist.interests[requester])
        rng.shuffle(interests)
        for c in interests:
            docs = state.class_docs.get(c)
            if docs is None:
                continue
            for _ in range(25):  # document attempts within the class
                doc_id = int(docs[_zipf_index(
                    rng, len(docs), params.query_zipf_s,
                    state.zipf_tables.setdefault(c, {}),
                )])
                if state.has_live_holder(doc_id, excluding=requester):
                    doc = state.index.document(doc_id)
                    terms = _make_terms(doc, params, rng)
                    return QueryEvent(
                        time=time, node=requester, terms=terms, target_doc=doc_id
                    )
    return None


def _make_terms(
    doc: Document, params: TraceParams, rng: np.random.Generator
) -> tuple:
    """Build query terms from the target document's keywords.

    The title token (keywords[0]) is unique to the document; class tokens
    are shared.  Including the title yields a selective query; class tokens
    alone yield a broad one.
    """
    title, class_kws = doc.keywords[0], list(doc.keywords[1:])
    use_title = rng.random() < params.title_term_prob or not class_kws
    terms: List[str] = [title] if use_title else []
    budget = params.max_terms - len(terms)
    if class_kws and budget > 0:
        k_extra = int(rng.integers(0 if use_title else 1, budget + 1))
        k_extra = min(k_extra, len(class_kws))
        if k_extra:
            picks = rng.choice(len(class_kws), size=k_extra, replace=False)
            terms.extend(class_kws[i] for i in sorted(picks))
    return tuple(terms)


def _pick_content_change(
    state: _GeneratorState,
    params: TraceParams,
    rng: np.random.Generator,
    time: float,
) -> Optional[ContentChangeEvent]:
    # An array: ``Generator.shuffle`` draws and permutes as on a list.
    live_sharers = np.flatnonzero(state.live & ~state.dist.free_rider)
    if not len(live_sharers):
        return None
    want_add = rng.random() < params.addition_fraction
    if not want_add:
        # Removal: a live node that still shares something.
        rng.shuffle(live_sharers)
        for node in live_sharers[:50]:
            docs = state.copies.docs_of(int(node))
            if len(docs):
                doc_id = int(rng.choice(docs.tolist()))
                state.copies.remove(int(node), doc_id)
                return ContentChangeEvent(
                    time=time, node=int(node), doc_id=doc_id, added=False
                )
        want_add = True  # nothing removable; fall through to an addition
    node = int(live_sharers[rng.integers(len(live_sharers))])
    sharing = state.dist.sharing_classes(node) or state.dist.interests[node]
    class_id = int(rng.choice(sorted(sharing)))
    doc = make_document(
        state.dist.next_doc_id,
        class_id,
        state.dist.class_vocab[class_id],
        rng,
        min_kw=state.dist.params.min_class_keywords,
        max_kw=state.dist.params.max_class_keywords,
        zipf_s=state.dist.params.keyword_zipf_s,
    )
    # The distribution's counter, so a later trace over it mints fresh ids.
    state.dist.next_doc_id += 1
    state.index.register_document(doc)  # metadata only; placement is replayed
    state.add_document(node, doc)
    return ContentChangeEvent(time=time, node=node, doc_id=doc.doc_id, added=True)


def generate_trace(
    dist: ContentDistribution,
    params: TraceParams | None = None,
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Lay down the full event timeline over a content distribution."""
    params = params or TraceParams()
    rng = rng if rng is not None else np.random.default_rng(0)
    state = _GeneratorState(dist)
    n = dist.n_peers

    # Query arrival times: Poisson process.
    gaps = rng.exponential(1.0 / params.arrival_rate, size=params.n_queries)
    query_times = np.cumsum(gaps)
    duration = float(query_times[-1])

    # Churn slots at uniform random times.
    n_churn = params.n_joins + params.n_leaves
    churn_times = np.sort(rng.uniform(0.0, duration, size=n_churn))

    # Which queries trigger a content change.
    n_changes = int(round(params.content_change_fraction * params.n_queries))
    change_after = set(
        rng.choice(params.n_queries, size=n_changes, replace=False).tolist()
    )

    # Merge the two time streams chronologically.
    events: List[TraceEvent] = []
    joins_left, leaves_left = params.n_joins, params.n_leaves
    offline: List[int] = []
    qi, ci = 0, 0
    min_live = int(params.min_live_fraction * n)
    live_count = n

    while qi < params.n_queries or ci < n_churn:
        take_churn = ci < n_churn and (
            qi >= params.n_queries or churn_times[ci] <= query_times[qi]
        )
        if take_churn:
            t = float(churn_times[ci])
            ci += 1
            total_left = joins_left + leaves_left
            want_join = (
                joins_left > 0
                and offline
                and (leaves_left == 0 or rng.random() < joins_left / total_left)
            )
            if want_join:
                node = offline.pop(int(rng.integers(len(offline))))
                state.apply_join(node)
                live_count += 1
                joins_left -= 1
                events.append(JoinEvent(time=t, node=node))
            elif leaves_left > 0 and live_count > min_live:
                live_nodes = state.live_nodes
                node = int(live_nodes[rng.integers(len(live_nodes))])
                state.apply_leave(node)
                offline.append(node)
                live_count -= 1
                leaves_left -= 1
                events.append(LeaveEvent(time=t, node=node))
            # else: churn slot unusable (no joins possible, leave guard hit);
            # drop it -- counts then undershoot, which we accept and report.
        else:
            t = float(query_times[qi])
            query = _pick_query(state, params, rng, t)
            if query is not None:
                events.append(query)
                if qi in change_after:
                    change = _pick_content_change(state, params, rng, t + 1e-3)
                    if change is not None:
                        events.append(change)
            qi += 1

    events.sort(key=lambda e: e.time)
    return Trace(events=events, duration=duration)
