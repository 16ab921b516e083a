"""Hierarchical ASAP: only super peers handle ads (paper footnote 3).

The paper excludes super-peer architectures from its baselines but notes
that "ASAP can work well on hierarchical systems in which only super peers
are responsible for ad representation, delivery, caching and processing".
This module implements that variant:

* a fraction of peers (the best-connected ones) are designated **super
  peers**; every leaf attaches to its nearest live super peer;
* a leaf's shared content is advertised *by its super peer*: the super
  peer aggregates its leaves' filters into per-leaf entries and delivers
  their ads over the super-peer backbone (same FLD/RW/GSA forwarders);
* only super peers maintain ads caches; a leaf's search costs one extra
  hop (leaf -> super peer) before the usual ASAP flow, and confirmations
  still go directly to the content owner.

The leaf hop adds ~one RTT to response time but shrinks the number of
caching/delivery participants by the super-peer ratio -- the classic
hierarchy trade-off this module lets you measure.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.asap.protocol import AsapParams, AsapSearch
from repro.network.overlay import Overlay
from repro.search.base import QUERY_BYTES, QUERY_RESPONSE_BYTES, SearchOutcome
from repro.sim.metrics import TrafficCategory

__all__ = ["SuperPeerAsapSearch", "elect_super_peers"]


def elect_super_peers(
    overlay: Overlay, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Designate the top-degree ``fraction`` of live nodes as super peers.

    Degree is the natural capability proxy on a crawled overlay (Limewire
    ultrapeers are exactly its high-degree nodes).  Ties break randomly but
    deterministically under the provided RNG.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    live = overlay.live_nodes()
    if len(live) == 0:
        raise ValueError("no live nodes to elect from")
    n_supers = max(1, int(round(fraction * len(live))))
    degrees = overlay.walk_csr().deg[live].astype(np.float64)
    degrees += rng.random(len(live)) * 0.5  # deterministic tie-break jitter
    order = np.argsort(-degrees)
    return np.sort(live[order[:n_supers]])


class SuperPeerAsapSearch(AsapSearch):
    """ASAP where ads live only on the super-peer tier."""

    def __init__(
        self,
        *args,
        super_fraction: float = 0.15,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.name = f"ASAP-SP({self.params.forwarder.upper()})"
        self.super_fraction = super_fraction
        self._is_super = np.zeros(self.overlay.n, dtype=bool)
        self._is_super[elect_super_peers(self.overlay, super_fraction, self.rng)] = True
        # Per leaf, its super peer (nearest by one-way latency); -1 for none.
        self._super_of = np.full(self.overlay.n, -1, dtype=np.int64)
        # Super peers aggregate their leaves' interests so they cache every
        # ad any of their leaves would want.
        self.state.interest_bits = self.interests.bitmasks.copy()
        live = self.overlay.live_nodes()
        for node in live[~self._is_super[live]].tolist():
            self._attach(node)

    # ------------------------------------------------------------- plumbing
    def _nearest_super(self, node: int) -> int:
        live_supers = np.flatnonzero(self._is_super & self.overlay.live_mask)
        if len(live_supers) == 0:
            # All super peers departed: promote the best-connected live node.
            live_supers = elect_super_peers(self.overlay, 0.01, self.rng)
            self._is_super[live_supers] = True
        lats = self.overlay.direct_latencies_ms(node, live_supers)
        return int(live_supers[int(np.argmin(lats))])

    def _attach(self, node: int) -> int:
        """Home leaf ``node`` at its nearest live super peer, whose caching
        filter takes the leaf's interests."""
        sp = self._nearest_super(node)
        self._super_of[node] = sp
        self.state.interest_bits[sp] |= self.interests.bitmasks[node]
        return sp

    def is_super_peer(self, node: int) -> bool:
        return bool(self._is_super[node])

    def super_peer_of(self, node: int) -> int:
        """The super peer responsible for ``node`` (itself if it is one)."""
        if self._is_super[node]:
            return node
        sp = int(self._super_of[node])
        if sp < 0 or not self.overlay.is_live(sp):
            sp = self._attach(node)
        return sp

    def _disseminate(self, ad, now, budget=None) -> None:
        """Deliver an ad but let only super peers cache it."""
        receivers = self.forwarder.deliver(ad, now, budget=budget).visited
        self._merge_ad(ad, now, receivers[self._is_super[receivers]])

    def warmup(self, engine, start: float, duration: float) -> None:
        """As in flat ASAP, except only sharers keep a refresh timer."""
        self._schedule_warmup(
            engine, start, duration, refreshes=self.store.is_sharer
        )

    def _bootstraps(self, node: int) -> bool:
        """Only super peers hold a cache to fill."""
        return self.is_super_peer(node)

    # ---------------------------------------------------------------- search
    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        if self._local_hit(requester, self.content.nodes_matching(terms)):
            return self._local_outcome()
        if self._is_super[requester]:
            return super()._search_impl(requester, terms, now)

        # Leaf: route the request through its super peer (one extra hop
        # each way); the super peer runs the normal ASAP flow.
        sp = self.super_peer_of(requester)
        leaf_rtt = 2.0 * self.overlay.direct_latency_ms(requester, sp)
        self.ledger.record(
            now, TrafficCategory.CONFIRMATION, QUERY_BYTES, messages=1
        )
        inner = super()._search_impl(sp, terms, now)
        self.ledger.record(
            now, TrafficCategory.CONFIRMATION, QUERY_RESPONSE_BYTES, messages=1
        )
        extra_bytes = QUERY_BYTES + QUERY_RESPONSE_BYTES
        if not inner.success:
            return SearchOutcome(
                success=False,
                response_time_ms=math.inf,
                messages=inner.messages + 2,
                cost_bytes=inner.cost_bytes + extra_bytes,
                results=0,
            )
        return SearchOutcome(
            success=True,
            response_time_ms=inner.response_time_ms + leaf_rtt,
            messages=inner.messages + 2,
            cost_bytes=inner.cost_bytes + extra_bytes,
            results=inner.results,
        )

    # ----------------------------------------------------------------- churn
    def on_join(self, node: int, now: float) -> None:
        # Joining nodes re-evaluate their tier attachment; ad issuance is
        # unchanged (delivery lands on super peers only).
        if not self._is_super[node]:
            self._attach(node)
        super().on_join(node, now)
