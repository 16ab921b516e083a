"""Gnutella-style flooding search (TTL = 6) and the shared flood kernel.

Flooding semantics (standard deduplicating broadcast): the requester sends
the query to every live neighbour; a node receiving the query for the first
time with remaining TTL forwards it to all neighbours except the sender;
duplicate receptions are dropped but their transmissions still consumed
bandwidth.  Responses travel back along the reverse query path.

The simulator computes floods *analytically* instead of pushing one event
per message through the engine (DESIGN.md section 6), several requesters
to a pass of :func:`repro.sim.kernels.flood_frontier`:

* arrival times -- a hop-bounded Bellman-Ford over the live CSR,
  restricted each round to the out-edges of nodes whose arrival changed,
  which is exact because a query copy propagates along every edge, so a
  node's earliest reception time is the min-latency path of at most TTL
  hops;
* message count -- first-reception hops give the forwarding set:
  ``deg(requester) + sum over nodes first reached at hop < TTL of (deg-1)``,
  which counts every transmission including duplicates received-and-dropped.

Both are exact for the protocol above, at NumPy speed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.network.overlay import Overlay
from repro.search.base import (
    QUERY_BYTES,
    QUERY_RESPONSE_BYTES,
    SearchAlgorithm,
    SearchOutcome,
)
from repro.sim import kernels
from repro.sim.metrics import TrafficCategory

__all__ = ["FloodingSearch", "flood_reach"]


def flood_reach(
    overlay: Overlay, source: int, ttl: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Compute one flood from ``source`` over the live overlay.

    Returns ``(first_hop, arrival_ms, n_messages)``:

    * ``first_hop[v]`` -- hop count of v's first reception (-1 if unreached;
      0 for the source);
    * ``arrival_ms[v]`` -- earliest arrival time of the query at v over
      paths of at most ``ttl`` hops (inf if unreached);
    * ``n_messages`` -- total query transmissions of the flood.

    Runs on the frontier-restricted kernel
    (:func:`repro.sim.kernels.flood_frontier`) over the shared per-epoch
    :class:`~repro.sim.kernels.WalkCsr`; the full-edge-array Bellman-Ford
    the differential tests check it against is
    ``tests/oracles/flood.py``.
    """
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    if not overlay.is_live(source):
        raise ValueError(f"flood source {source} is offline")
    first_hop, arrival, n_messages = kernels.flood_frontier(
        overlay.walk_csr(), [source], ttl
    )
    return first_hop[0], arrival[0], int(n_messages[0])


#: The paper's flooding TTL (Section IV-A).
FLOOD_TTL = 6


class FloodingSearch(SearchAlgorithm):
    """Flooding with the paper's TTL of 6.

    A search flood depends only on the epoch's live CSR and the requester,
    so floods are computed ahead: a requester with no flood on the current
    CSR is flooded in one :func:`~repro.sim.kernels.flood_frontier` pass
    with the next distinct, live requesters :meth:`plan_queries` lists
    before the overlay's next planned join or leave, as many as
    :func:`~repro.sim.kernels.flood_pass_sources` allows.  A new CSR drops
    what was computed on the old one.  Each search still books its own
    bytes and outcome at its own time, so which requesters share a pass
    changes how many passes a run makes, never a result.
    """

    name = "flooding"

    def __init__(self, *args, ttl: int = FLOOD_TTL, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        self.ttl = ttl
        self._plan_times = np.empty(0)
        self._plan_nodes = np.empty(0, dtype=np.int64)
        # Floods computed ahead on the current CSR, by requester.
        self._ahead = kernels.Ahead()

    def plan_queries(self, times, requesters) -> None:
        order = np.argsort(times, kind="stable")
        self._plan_times = np.asarray(times, dtype=np.float64)[order]
        self._plan_nodes = np.asarray(requesters, dtype=np.int64)[order]

    def _flood(self, requester: int, now: float) -> Tuple[np.ndarray, np.ndarray, int]:
        """``requester``'s flood on the current CSR: computed ahead, or now
        in one pass with its companions, whose floods are kept."""
        if not self.overlay.is_live(requester):
            raise ValueError(f"flood source {requester} is offline")
        csr, flood = self._ahead.take(self.overlay, requester)
        if flood is not None:
            return flood
        room = kernels.flood_pass_sources(csr)
        times, planned = self._plan_times, self._plan_nodes
        lo, hi = times.searchsorted([now, self.overlay.next_churn(now)])
        sources = [requester]
        live = self.overlay.live_mask
        # At most ``2 * room`` planned queries are read, so a long epoch is
        # not rescanned on every pass.
        for s in planned[lo : min(hi, lo + 2 * room)].tolist():
            if len(sources) == room:
                break
            if live[s] and s not in self._ahead and s not in sources:
                sources.append(s)
        first_hop, arrival, n_messages = kernels.flood_frontier(
            csr, sources, self.ttl
        )
        floods = zip(first_hop, arrival, n_messages.tolist())
        flood = next(floods)
        self._ahead.update(zip(sources[1:], floods))
        return flood

    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        holders = self.content.nodes_matching(terms)
        if self._local_hit(requester, holders):
            # A flood computed ahead for this query goes unused.
            self._ahead.pop(requester, None)
            return self._local_outcome()

        first_hop, arrival, n_query_msgs = self._flood(requester, now)
        query_bytes = n_query_msgs * QUERY_BYTES
        self.ledger.record(
            now, TrafficCategory.QUERY, query_bytes, messages=n_query_msgs
        )

        # Matching nodes the flood reached, ascending.
        matching = self._matching_live_nodes(holders, exclude=requester)
        hits = matching[first_hop[matching] >= 0]
        # Responses travel the reverse path: hop(v) transmissions each, and
        # the response reaches the requester after another arrival[v].
        # Integer sum and float min are order-independent, so the gathered
        # forms equal a per-hit loop bit for bit.
        hit_hops = first_hop[hits]
        if self.obs is not None:
            self.obs.query_traffic(
                now, requester, query_bytes,
                zip(hits.tolist(), (hit_hops * QUERY_RESPONSE_BYTES).tolist()),
            )
        if not len(hits):
            return self._failure(n_query_msgs, query_bytes)

        response_msgs = int(hit_hops.sum())
        response_bytes = response_msgs * QUERY_RESPONSE_BYTES
        self.ledger.record(
            now,
            TrafficCategory.QUERY_RESPONSE,
            response_bytes,
            messages=response_msgs,
        )
        response_time = 2.0 * float(arrival[hits].min())
        return SearchOutcome(
            success=True,
            response_time_ms=response_time,
            messages=n_query_msgs + response_msgs,
            cost_bytes=query_bytes + response_bytes,
            results=len(hits),
        )
