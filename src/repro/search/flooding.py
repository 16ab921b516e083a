"""Gnutella-style flooding search (TTL = 6) and the shared flood kernel.

Flooding semantics (standard deduplicating broadcast): the requester sends
the query to every live neighbour; a node receiving the query for the first
time with remaining TTL forwards it to all neighbours except the sender;
duplicate receptions are dropped but their transmissions still consumed
bandwidth.  Responses travel back along the reverse query path.

The simulator computes a flood *analytically* per query instead of pushing
one event per message through the engine (DESIGN.md section 6):

* arrival times -- a hop-bounded Bellman-Ford over the live directed edge
  arrays (TTL rounds of ``np.minimum.at``), which is exact because a query
  copy propagates along every edge, so a node's earliest reception time is
  the min-latency path of at most TTL hops;
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
    return kernels.flood_frontier(overlay.walk_csr(), source, ttl)


#: The paper's flooding TTL (Section IV-A).
FLOOD_TTL = 6


class FloodingSearch(SearchAlgorithm):
    """Flooding with the paper's TTL of 6."""

    name = "flooding"

    def __init__(self, *args, ttl: int = FLOOD_TTL, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if ttl < 1:
            raise ValueError("ttl must be >= 1")
        self.ttl = ttl

    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        holders = self.content.nodes_matching(terms)
        if self._local_hit(requester, holders):
            return self._local_outcome()

        first_hop, arrival, n_query_msgs = flood_reach(
            self.overlay, requester, self.ttl
        )
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
