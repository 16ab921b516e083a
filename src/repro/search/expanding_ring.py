"""Expanding-ring search (Lv et al., ICS'02 -- the paper's reference [21]).

Not one of the paper's three baselines, but the canonical middle ground
between flooding and random walks from the same literature: flood with
TTL 1, and if no result arrives, retry with a larger TTL, up to a cap.
Popular objects are found cheaply by the small rings; rare objects cost a
sequence of floods (each ring re-floods from scratch, which is the
scheme's known weakness and why Lv et al. proposed k-walkers).

Included as an extension baseline (``expanding_ring`` in
``EXTENDED_ALGORITHMS``) so ASAP's comparison set can be widened; each
ring reuses the same vectorised flood kernel as ``FloodingSearch``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.search.base import SearchAlgorithm, SearchOutcome
from repro.search.flooding import _reached_hits
from repro.sim import kernels
from repro.sim.metrics import TrafficCategory

__all__ = ["ExpandingRingSearch"]


class ExpandingRingSearch(SearchAlgorithm):
    """Successive floods with growing TTLs until a result is found."""

    name = "expanding_ring"

    def __init__(
        self, *args, ttl_sequence: Tuple[int, ...] = (1, 2, 4, 6), **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        if not ttl_sequence:
            raise ValueError("need at least one ring TTL")
        if ttl_sequence[0] < 1 or any(
            a >= b for a, b in zip(ttl_sequence, ttl_sequence[1:])
        ):
            raise ValueError("ttl_sequence must be strictly increasing positive TTLs")
        self.ttl_sequence = tuple(ttl_sequence)

    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        if self._local_hit(requester, terms):
            return self._local_outcome()

        matching = self._matching_live_nodes(terms, exclude=requester)
        total_msgs = 0
        total_bytes = 0.0
        elapsed_ms = 0.0  # rings run sequentially

        # Incremental snapshots: later rings continue the earlier
        # rings' Bellman-Ford state instead of re-flooding (see
        # kernels.flood_rings for the bit-identity argument).
        rings = kernels.flood_rings(
            self.overlay.walk_csr(), requester, self.ttl_sequence
        )

        for ttl, (first_hop, arrival, n_msgs) in zip(self.ttl_sequence, rings):
            ring_bytes = n_msgs * self.sizes.query
            total_msgs += n_msgs
            total_bytes += ring_bytes
            self.ledger.record(
                now + elapsed_ms / 1000.0,
                TrafficCategory.QUERY,
                ring_bytes,
                messages=n_msgs,
            )
            hits = _reached_hits(matching, first_hop)
            if len(hits):
                hit_hops = first_hop[hits]
                response_msgs = int(hit_hops.sum())
                response_bytes = response_msgs * self.sizes.query_response
                self.ledger.record(
                    now + elapsed_ms / 1000.0,
                    TrafficCategory.QUERY_RESPONSE,
                    response_bytes,
                    messages=response_msgs,
                )
                if self.obs is not None:
                    replies = hit_hops * self.sizes.query_response
                    self.obs.query_traffic(
                        now, requester, total_bytes,
                        zip(hits.tolist(), replies.tolist()),
                    )
                response_time = elapsed_ms + 2.0 * float(arrival[hits].min())
                return SearchOutcome(
                    success=True,
                    response_time_ms=response_time,
                    messages=total_msgs + response_msgs,
                    cost_bytes=total_bytes + response_bytes,
                    results=len(hits),
                )
            # No result: wait out this ring's horizon before enlarging
            # (requester must give the ring time to answer -- we charge the
            # worst arrival within the ring, the standard timeout model).
            finite = arrival[first_hop >= 0]
            ring_horizon = 2.0 * float(finite.max()) if len(finite) else 0.0
            elapsed_ms += ring_horizon

        if self.obs is not None:
            self.obs.query_traffic(now, requester, total_bytes)
        return self._failure(total_msgs, total_bytes)
