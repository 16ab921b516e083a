"""GSA search oracle: the heap loop over flat CSR lists.

The body of ``GsaSearch._search_impl`` as it was before the search walked
the carried rows of :class:`~repro.sim.kernels.WalkCsr`: the same draws in
the same order, the same heap of ``(elapsed, walker)`` events sharing one
``seen`` table, and the same ledger write through ``finish_walk`` of the
messages it counts per second.  The flat lists it indexes are read from
the CSR arrays here, so outcomes, the ledger's per-second bytes and RNG
state must match the product bit for bit.
"""

import heapq
import math
from collections import defaultdict
from typing import Dict, Optional, Sequence

from repro.search.base import SearchOutcome
from repro.search.gsa import GsaSearch
from repro.search.random_walk import finish_walk

from tests.oracles.delivery import by_second_counts

__all__ = ["gsa_search_reference"]


def gsa_search_reference(
    self: GsaSearch, requester: int, terms: Sequence[str], now: float
) -> SearchOutcome:
    """The loop oracle for ``self._search_impl(requester, terms, now)``."""
    holders = self.content.nodes_matching(terms)
    if self._local_hit(requester, holders):
        return self._local_outcome()

    matching = set(self._matching_live_nodes(holders, exclude=requester).tolist())
    rng = self.rng
    per_walker = max(1, self.budget // self.walkers)
    csr = self.overlay.walk_csr()
    ip, dg = csr.indptr.tolist(), csr.deg.tolist()
    ix, lat_l = csr.indices.tolist(), csr.lats.tolist()

    heap = [(0.0, w) for w in range(self.walkers)]
    positions = [requester] * self.walkers
    budgets = [per_walker] * self.walkers
    steps = [0] * self.walkers
    by_second: Dict[int, int] = defaultdict(int)
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
    for m in matching:
        match_flags[m] = 1

    while heap:
        elapsed, w = heapq.heappop(heap)
        if elapsed >= hit_time_ms or budgets[w] <= 0:
            continue
        node = positions[w]
        deg = dg[node]
        if deg == 0:
            continue
        j = ip[node] + int(rows[w][steps[w]] * deg)
        steps[w] += 1
        nxt = ix[j]
        arrival = elapsed + lat_l[j]
        positions[w] = nxt
        budgets[w] -= 1
        seen[nxt] = 1
        by_second[int(now + arrival / 1000.0)] += 1

        if match_flags[nxt] and arrival < hit_time_ms:
            hit_time_ms = arrival
            hit_node = nxt

        # One-hop lookahead: probe the new node's not-yet-seen live
        # neighbours.
        lo2 = ip[nxt]
        n_probed = 0
        budget_w = budgets[w]
        for k, p in enumerate(ix[lo2 : lo2 + dg[nxt]]):
            if n_probed >= budget_w:
                break
            if seen[p]:
                continue
            seen[p] = 1
            n_probed += 1
            if match_flags[p]:
                # Probe out + answer back to the visited node.
                t = arrival + 2.0 * lat_l[lo2 + k]
                if t < hit_time_ms:
                    hit_time_ms = t
                    hit_node = p
        if n_probed > 0:
            budgets[w] -= n_probed
            by_second[int(now + arrival / 1000.0)] += n_probed

        if budgets[w] > 0:
            heapq.heappush(heap, (arrival, w))

    return finish_walk(
        self, requester, now, *by_second_counts(by_second),
        hit_time_ms, hit_node,
    )
