"""GSA: the generalized search algorithm (budget-limited hybrid walk).

Gkantsidis et al. (INFOCOM'05) propose *hybrid search*: random walks where
every visited node additionally speculates one hop -- the walker's query is
pushed to all neighbours of the visited node -- capped by a total message
budget per query (the paper assigns 8,000).  No public implementation
exists; this module is our documented interpretation (DESIGN.md section 3):

* ``walkers`` concurrent walkers split the budget evenly;
* each step costs 1 message (the move) + live-degree messages (the one-hop
  probe of the new node's neighbours);
* a match at the visited node succeeds at walk-arrival time; a match at a
  probed neighbour succeeds after the additional probe hop and its reply;
* the walker (and its siblings) stop when the requester has an answer or
  the budget is exhausted.

This yields GSA's published qualitative profile, which the paper reproduces:
better success than plain random walk, response time comparable to
flooding, message cost between the two.

Implementation notes:

* The walk is genuinely event-ordered (walkers interleave through a heap
  and share the ``seen`` set, so execution order matters); it cannot be
  truncated post hoc like the plain random walk.  Instead the hot loop
  runs over the epoch's carried plain-list rows (:meth:`Overlay.walk_csr`:
  ``nbr[u]`` and the aligned latencies ``nbr_lat[u]``) with bytearray
  membership tables for ``seen`` and the matching set.  The heap loop
  over the flat CSR arrays is ``tests/oracles/gsa.py``, the differential
  this loop is checked against.
* Draw sizing: a walker executes at most ``per_walker`` steps (each step
  consumes at least one budget unit), so the ``(walkers, per_walker)``
  draw matrix is always long enough and every uniform is consumed at most
  once.
* The reply's bytes land in the ledger at the reply's *arrival* time
  (hit time + direct reply hop), matching the random-walk baseline.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from repro.search.base import SearchAlgorithm, SearchOutcome
from repro.search.random_walk import WALKERS, finish_walk
from repro.sim.kernels import second_counts

__all__ = ["GsaSearch"]


class GsaSearch(SearchAlgorithm):
    """Budget-limited hybrid walk with one-hop lookahead."""

    name = "gsa"

    def __init__(
        self, *args, budget: int = 8000, walkers: int = WALKERS, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if walkers < 1:
            raise ValueError("need at least one walker")
        self.budget = budget
        self.walkers = walkers

    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        holders = self.content.nodes_matching(terms)
        if self._local_hit(requester, holders):
            return self._local_outcome()

        matching = self._matching_live_nodes(holders, exclude=requester)
        rng = self.rng
        per_walker = max(1, self.budget // self.walkers)
        csr = self.overlay.walk_csr()
        nbr, dgf, nbr_lat = csr.nbr, csr.dgf, csr.nbr_lat

        heap = [(0.0, w) for w in range(self.walkers)]
        positions = [requester] * self.walkers
        budgets = [per_walker] * self.walkers
        steps = [0] * self.walkers
        # Per step: the second it lands in and the messages it sent.
        seconds, sent = [], []
        hit_time_ms = math.inf
        hit_node: Optional[int] = None
        draws = rng.random((self.walkers, per_walker))
        rows = [draws[w].tolist() for w in range(self.walkers)]
        # Nodes already holding this query (visited or probed): probing them
        # again is pure waste, so the implementation skips them -- budget
        # buys distinct coverage, which is the point of hybrid search.
        seen = bytearray(csr.n)
        seen[requester] = 1
        match_flags = bytearray(csr.n)
        for m in matching.tolist():
            match_flags[m] = 1

        while heap:
            elapsed, w = heapq.heappop(heap)
            if elapsed >= hit_time_ms or budgets[w] <= 0:
                continue
            node = positions[w]
            d = dgf[node]
            if not d:
                continue
            k = int(rows[w][steps[w]] * d)
            steps[w] += 1
            nxt = nbr[node][k]
            arrival = elapsed + nbr_lat[node][k]
            positions[w] = nxt
            budgets[w] -= 1
            seen[nxt] = 1

            if match_flags[nxt] and arrival < hit_time_ms:
                hit_time_ms = arrival
                hit_node = nxt

            # One-hop lookahead: probe the new node's not-yet-seen live
            # neighbours.
            n_probed = 0
            budget_w = budgets[w]
            for k, p in enumerate(nbr[nxt]):
                if n_probed >= budget_w:
                    break
                if seen[p]:
                    continue
                seen[p] = 1
                n_probed += 1
                if match_flags[p]:
                    # Probe out + answer back to the visited node.
                    t = arrival + 2.0 * nbr_lat[nxt][k]
                    if t < hit_time_ms:
                        hit_time_ms = t
                        hit_node = p
            budgets[w] -= n_probed
            seconds.append(int(now + arrival / 1000.0))
            sent.append(1 + n_probed)

            if budgets[w] > 0:
                heapq.heappush(heap, (arrival, w))

        return finish_walk(
            self, requester, now, *second_counts(seconds, sent), hit_time_ms,
            hit_node,
        )
