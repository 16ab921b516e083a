"""Random-walk search: 5 walkers, TTL = 1024 (paper Section IV-A).

Each walker starts at the requester and repeatedly moves to a uniformly
random live neighbour, checking every visited node for a document matching
all query terms.  Following Lv et al.'s "checking" termination, all walkers
stop once the first walker finds a match (walkers that are mid-flight at
the success instant are charged for the steps they took up to that time).
The successful node replies to the requester directly; the reply's bytes
are recorded at the reply's *arrival* time (hit time + the direct reply
hop), so the Figure 10 per-second series places them when the requester
actually receives them.

Which of two implementations runs is decided by the overlay, not by a
setting:

* strictly positive edge latencies (``csr.lats_positive``, every overlay
  the experiments build): the vectorised walk kernel
  (:mod:`repro.sim.kernels`) -- full trajectories in chunks, with the heap
  cut-off recovered post hoc; the first hit is the minimum match arrival
  over the full trajectories, and a step is charged iff it *started*
  before that instant (proof sketch in docs/PERFORMANCE.md);
* any non-positive edge latency, where that truncation argument does not
  hold: ``_search_loop`` -- walkers step in wall-clock order via a small
  heap keyed by accumulated path latency.  The differential tests also
  assert the two agree bit-for-bit wherever both apply.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

import numpy as np

from repro.search.base import (
    QUERY_BYTES,
    QUERY_RESPONSE_BYTES,
    SearchAlgorithm,
    SearchOutcome,
)
from repro.sim import kernels
from repro.sim.metrics import TrafficCategory

__all__ = ["RandomWalkSearch", "WALKERS", "finish_walk"]

#: The paper's walkers per query, random walk and GSA alike (Section IV-A).
WALKERS = 5


class RandomWalkSearch(SearchAlgorithm):
    """k-walker random walk with per-walker TTL."""

    name = "random_walk"

    def __init__(self, *args, walkers: int = WALKERS, ttl: int = 1024, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if walkers < 1:
            raise ValueError("need at least one walker")
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        self.walkers = walkers
        self.ttl = ttl

    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        holders = self.content.nodes_matching(terms)
        if self._local_hit(requester, holders):
            return self._local_outcome()

        csr = self.overlay.walk_csr()
        if not csr.lats_positive:
            # Zero/negative edge latency breaks the post-hoc truncation
            # proof; only the event-ordered loop is exact here.
            return self._search_loop(requester, terms, now)

        matching = self._matching_live_nodes(holders, exclude=requester)
        draws = self.rng.random((self.walkers, self.ttl))
        match = np.zeros(self.overlay.n, dtype=bool)
        match[matching] = True

        res = kernels.rw_search(csr, requester, draws, match, now)
        return finish_walk(
            self, requester, now, res.first_second, res.counts, res.hit_time_ms,
            res.hit_node,
        )

    def _search_loop(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        """Heap-ordered walk: exact for any edge latencies, and the only
        path for overlays where some latency is not strictly positive."""
        holders = self.content.nodes_matching(terms)
        if self._local_hit(requester, holders):
            return self._local_outcome()

        matching = set(self._matching_live_nodes(holders, exclude=requester).tolist())
        rng = self.rng
        csr = self.overlay.walk_csr()
        indptr, indices, lats = csr.indptr, csr.indices, csr.lats

        # Heap of (elapsed_ms, walker_id); walker state kept in arrays.
        heap = [(0.0, w) for w in range(self.walkers)]
        positions = [requester] * self.walkers
        steps_taken = [0] * self.walkers
        seconds = []  # the ledger second of every step
        hit_time_ms = math.inf
        hit_node: Optional[int] = None
        draws = rng.random((self.walkers, self.ttl))

        while heap:
            elapsed, w = heapq.heappop(heap)
            if elapsed >= hit_time_ms:
                continue  # the requester already has its answer
            if steps_taken[w] >= self.ttl:
                continue
            node = positions[w]
            lo = indptr[node]
            deg = indptr[node + 1] - lo
            if deg == 0:
                continue  # walker stranded on an isolated node
            j = lo + int(draws[w, steps_taken[w]] * deg)
            nxt = int(indices[j])
            elapsed += lats[j]
            positions[w] = nxt
            steps_taken[w] += 1
            seconds.append(int(now + elapsed / 1000.0))
            if nxt in matching and elapsed < hit_time_ms:
                hit_time_ms = elapsed
                hit_node = nxt
                # Other walkers keep stepping only until this instant; the
                # heap condition above cuts them off.
            if steps_taken[w] < self.ttl:
                heapq.heappush(heap, (elapsed, w))

        return finish_walk(
            self,
            requester,
            now,
            *kernels.second_counts(seconds),
            None if hit_node is None else hit_time_ms,
            hit_node,
        )


def finish_walk(
    search: SearchAlgorithm,
    requester: int,
    now: float,
    first_second: int,
    counts: np.ndarray,
    hit_time_ms: Optional[float],
    hit_node: Optional[int],
) -> SearchOutcome:
    """The accounting tail of a walk search (this one and GSA): one ledger
    write of the walk's messages, ``counts[i]`` of them in second
    ``first_second + i``, and the outcome from its first hit, if any
    (``hit_node`` None otherwise)."""
    ledger, n_messages = search.ledger, int(counts.sum())
    ledger.add(
        TrafficCategory.QUERY, first_second, counts * float(QUERY_BYTES), n_messages
    )

    cost_bytes = n_messages * QUERY_BYTES
    if search.obs is not None:
        # The hit node answers the requester directly.
        search.obs.query_traffic(
            now, requester, cost_bytes,
            [] if hit_node is None else [(hit_node, QUERY_RESPONSE_BYTES)],
            direct=True,
        )
    if hit_node is None:
        return search._failure(n_messages, cost_bytes)

    # Direct reply from the hit node to the requester, recorded at the
    # reply's arrival (hit + reply hop), not at the hit instant.
    reply_lat = search.overlay.direct_latency_ms(hit_node, requester)
    ledger.record(
        now + (hit_time_ms + reply_lat) / 1000.0,
        TrafficCategory.QUERY_RESPONSE,
        QUERY_RESPONSE_BYTES,
        messages=1,
    )
    return SearchOutcome(
        success=True,
        response_time_ms=hit_time_ms + reply_lat,
        messages=n_messages + 1,
        cost_bytes=cost_bytes + QUERY_RESPONSE_BYTES,
        results=1,
    )
