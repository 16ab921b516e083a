"""Exact hierarchical latency model over the transit-stub network.

GT-ITM stub domains have no cross edges, so the shortest physical path
between two nodes in *different* stub domains always decomposes as::

    u --(intra-stub)--> gateway_u --(5ms)--> transit_u
      --(transit core shortest path)--> transit_v
      --(5ms)--> gateway_v --(intra-stub)--> v

Each segment is exact: intra-stub distances come from each domain's
breadth-first hop counts to its gateway, the core segment from Dijkstra APSP
over the 144 transit nodes.  Nodes in the *same* stub domain use the
intra-domain shortest path directly (a breadth-first pass over the domain's
adjacency; by the triangle inequality within the domain it is never worse
than detouring through the gateway).

The model answers one query, the vectorised ``pairwise_ms(us, vs)``; a
single pair is a batch of one.  It precomputes, per registered node, its
*anchor* transit node and its *offset* (latency to reach that anchor) so a
batch of M pairs costs a handful of NumPy gathers -- this is the hot path
feeding per-edge overlay latencies and confirmation RTTs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.network.transit_stub import TransitStubNetwork

__all__ = ["LatencyModel"]


class LatencyModel:
    """Latency oracle between physical node ids of a transit-stub network."""

    def __init__(self, network: TransitStubNetwork) -> None:
        self._net = network
        self._core = network.transit_core_distances()
        n = network.n_nodes
        # Lazily-filled per-node vectors (NaN/-1 marks "not yet registered").
        self._offset_ms = np.full(n, np.nan, dtype=np.float64)
        self._anchor = np.full(n, -1, dtype=np.int64)
        self._domain = np.full(n, -1, dtype=np.int64)  # -1 for transit nodes

    @property
    def network(self) -> TransitStubNetwork:
        return self._net

    # ---------------------------------------------------------- registration
    def register(self, nodes: Iterable[int]) -> None:
        """Precompute anchor/offset for ``nodes`` so vector queries are O(1).

        Registration is idempotent and lazy per stub domain: only domains
        that actually contain registered nodes are materialised.
        """
        net, p = self._net, self._net.params
        nodes = np.unique(np.fromiter(nodes, dtype=np.int64))
        if len(nodes) and not 0 <= nodes[0] <= nodes[-1] < p.n_nodes:
            raise ValueError(
                f"physical node id out of range in {nodes[[0, -1]].tolist()}"
            )
        nodes = nodes[np.isnan(self._offset_ms[nodes])]
        transit = nodes[nodes < p.n_transit]
        self._offset_ms[transit] = 0.0
        self._anchor[transit] = transit
        stub = nodes[nodes >= p.n_transit]
        domain, local = net.stub_coordinates(stub)
        self._offset_ms[stub] = (
            net.gateway_hops(domain, local) * p.lat_intra_stub_ms
            + p.lat_transit_stub_ms
        )
        self._anchor[stub] = domain // p.stub_domains_per_transit
        self._domain[stub] = domain

    # --------------------------------------------------------------- queries
    def pairwise_ms(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Exact one-way latencies between aligned node ids ``us[i]`` and
        ``vs[i]``, in the ids' shape (0-d ids give a 0-d array)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError(f"shape mismatch: {us.shape} vs {vs.shape}")
        shape = us.shape
        us, vs = us.ravel(), vs.ravel()
        unregistered = np.isnan(self._offset_ms[us]) | np.isnan(self._offset_ms[vs])
        if unregistered.any():
            self.register(np.concatenate([us[unregistered], vs[unregistered]]))
        out = (
            self._offset_ms[us]
            + self._core[self._anchor[us], self._anchor[vs]]
            + self._offset_ms[vs]
        )
        # Same-stub-domain pairs: exact intra-domain distance.
        same = (self._domain[us] >= 0) & (self._domain[us] == self._domain[vs])
        if same.any():
            domain, local_u = self._net.stub_coordinates(us[same])
            _, local_v = self._net.stub_coordinates(vs[same])
            out[same] = (
                self._net.stub_hops(domain, local_u, local_v)
                * self._net.params.lat_intra_stub_ms
            )
        out[us == vs] = 0.0
        return out.reshape(shape)
