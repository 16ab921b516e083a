"""Churn-aware overlay runtime with vectorised live-edge views.

The search algorithms' hot loops (hop-bounded Bellman-Ford floods, walker
steps) operate on NumPy views of the *live* overlay.  Liveness only changes
at churn events -- about 2,000 times over a 30,000-request trace -- so the
runtime caches the filtered edge arrays per *epoch* (a counter bumped on
every join/leave) and the ~15 searches between consecutive churn events all
reuse the same cache.  This is the central optimisation that makes the
paper-scale replay tractable in Python (see DESIGN.md section 6).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.network.latency import LatencyModel
from repro.network.topology import OverlayTopology
from repro.sim.kernels import WalkCsr

__all__ = ["Overlay"]


class Overlay:
    """Mutable liveness over an immutable :class:`OverlayTopology`.

    Parameters
    ----------
    topology:
        The overlay graph (all nodes that will *ever* exist, including the
        reserve pool of nodes that join mid-trace).
    latency:
        Optional latency model.  When given, per-edge latencies are the
        exact physical-path latencies between the endpoints' physical nodes;
        when omitted every edge costs ``default_edge_latency_ms`` (useful
        for unit tests and pure-message-count studies).
    initially_live:
        Boolean mask or index array of nodes alive at t=0 (default: all).
    edge_latencies_ms:
        Explicit per-edge latencies aligned with ``topology.edges``;
        overrides both the latency model and the flat default (used by
        tests and custom scenarios).
    """

    def __init__(
        self,
        topology: OverlayTopology,
        latency: Optional[LatencyModel] = None,
        initially_live: Optional[np.ndarray] = None,
        default_edge_latency_ms: float = 20.0,
        edge_latencies_ms: Optional[np.ndarray] = None,
    ) -> None:
        self.topology = topology
        self.latency = latency
        self.default_edge_latency_ms = default_edge_latency_ms
        self._n = topology.n
        if initially_live is None:
            self._live = np.ones(self._n, dtype=bool)
        else:
            initially_live = np.asarray(initially_live)
            if initially_live.dtype == bool:
                if len(initially_live) != self._n:
                    raise ValueError("live mask length mismatch")
                self._live = initially_live.copy()
            else:
                self._live = np.zeros(self._n, dtype=bool)
                self._live[initially_live] = True
        self.epoch = 0

        # Static per-edge latencies (physical network does not churn).
        edges = topology.edges
        if edge_latencies_ms is not None:
            edge_latencies_ms = np.asarray(edge_latencies_ms, dtype=np.float64)
            if len(edge_latencies_ms) != len(edges):
                raise ValueError(
                    f"edge_latencies_ms length {len(edge_latencies_ms)} != "
                    f"edge count {len(edges)}"
                )
            self._edge_lat_ms = edge_latencies_ms.copy()
        elif latency is not None:
            phys = topology.physical_ids
            latency.register(phys)
            self._edge_lat_ms = latency.pairwise_ms(
                phys[edges[:, 0]], phys[edges[:, 1]]
            )
        else:
            self._edge_lat_ms = np.full(len(edges), default_edge_latency_ms)

        # Static adjacency with parallel latency arrays (for walkers): both
        # directions of every edge sorted by (node, neighbour), cut per node.
        self._full_sorted_cache: Optional[Tuple[np.ndarray, ...]] = None
        src, dst, lat = self._full_sorted_edges()
        order = np.lexsort((dst, src))
        cuts = np.cumsum(np.bincount(src, minlength=self._n))[:-1]
        self._adj_nodes: List[np.ndarray] = np.split(
            dst[order].astype(np.int64, copy=False), cuts
        )
        self._adj_lat: List[np.ndarray] = np.split(lat[order], cuts)

        self._live_edge_cache: Optional[Tuple[int, Tuple[np.ndarray, ...]]] = None
        self._live_degree_cache: Optional[Tuple[int, np.ndarray]] = None
        self._live_csr_cache: Optional[Tuple[int, Tuple[np.ndarray, ...]]] = None
        self._walk_csr_cache: Optional[Tuple[int, WalkCsr]] = None
        self._live_nodes_cache: Optional[Tuple[int, np.ndarray]] = None

    # ------------------------------------------------------------- liveness
    @property
    def n(self) -> int:
        return self._n

    @property
    def live_mask(self) -> np.ndarray:
        """Read-only view of the live mask (do not mutate)."""
        return self._live

    def is_live(self, node: int) -> bool:
        return bool(self._live[node])

    def live_count(self) -> int:
        return int(np.count_nonzero(self._live))

    def live_nodes(self) -> np.ndarray:
        """Ascending live node ids, cached per churn epoch (do not mutate).

        Large-N callers (ASAP warm-up scheduling, scale benches) iterate
        this instead of probing :meth:`is_live` n times.
        """
        cached = self._live_nodes_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        nodes = np.nonzero(self._live)[0]
        self._live_nodes_cache = (self.epoch, nodes)
        return nodes

    def join(self, node: int) -> None:
        """Bring ``node`` online (no-op error if already live)."""
        if self._live[node]:
            raise ValueError(f"node {node} is already live")
        self._live[node] = True
        self.epoch += 1

    def leave(self, node: int) -> None:
        """Take ``node`` offline."""
        if not self._live[node]:
            raise ValueError(f"node {node} is already offline")
        self._live[node] = False
        self.epoch += 1

    # ----------------------------------------------------------- edge views
    def live_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed live edge arrays ``(src, dst, latency_ms)``.

        Both directions of every undirected edge whose endpoints are both
        live.  Cached per epoch; the cache hit rate between churn events is
        what keeps trace replay fast.
        """
        cached = self._live_edge_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1]  # type: ignore[return-value]
        edges = self.topology.edges
        if len(edges):
            alive = self._live[edges[:, 0]] & self._live[edges[:, 1]]
            u = edges[alive, 0]
            v = edges[alive, 1]
            w = self._edge_lat_ms[alive]
            src = np.concatenate([u, v])
            dst = np.concatenate([v, u])
            lat = np.concatenate([w, w])
        else:
            src = dst = np.empty(0, dtype=np.int64)
            lat = np.empty(0, dtype=np.float64)
        result = (src, dst, lat)
        self._live_edge_cache = (self.epoch, result)
        return result

    def live_degrees(self) -> np.ndarray:
        """Live degree of every node (0 for offline nodes), cached per epoch.

        The flooding message-count formula sums ``deg_live - 1`` over all
        forwarding nodes; this vector makes that a single fancy-indexed sum.
        """
        cached = self._live_degree_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        src, _, _ = self.live_edges()
        deg = np.bincount(src, minlength=self._n).astype(np.int64)
        deg[~self._live] = 0
        self._live_degree_cache = (self.epoch, deg)
        return deg

    def live_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Live neighbours of ``node`` with their edge latencies (ms)."""
        nbrs = self._adj_nodes[node]
        lats = self._adj_lat[node]
        mask = self._live[nbrs]
        return nbrs[mask], lats[mask]

    def live_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR view of the live subgraph: ``(indptr, indices, latencies)``.

        ``indices[indptr[u]:indptr[u+1]]`` are u's live neighbours, with
        per-edge latencies alongside.  Offline nodes have empty rows (the
        CSR covers live-to-live edges only; unlike :meth:`live_neighbors`
        it is not defined for offline sources).  Cached per epoch.  This is the walk-step hot path: a random-walk step costs
        one integer draw plus three array indexings instead of a boolean
        mask over the adjacency -- the difference between minutes and hours
        at paper scale (10,000 warm-up deliveries x thousands of steps).
        """
        cached = self._live_csr_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1]  # type: ignore[return-value]
        # Mask the once-sorted full-graph edge arrays instead of re-sorting
        # per epoch: a stable sort of a subsequence equals the subsequence
        # of the stable sort, so each node's live neighbour order -- which
        # the walk kernels' seeded trajectories depend on -- is bit-for-bit
        # what sorting the live edges directly would produce.
        src_s, dst_s, lat_s = self._full_sorted_edges()
        if len(src_s):
            alive = self._live[src_s] & self._live[dst_s]
            indices = dst_s[alive]
            lats = lat_s[alive]
            counts = np.bincount(src_s[alive], minlength=self._n)
        else:
            indices = src_s
            lats = lat_s
            counts = np.zeros(self._n, dtype=np.int64)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        result = (indptr, indices, lats)
        self._live_csr_cache = (self.epoch, result)
        return result

    def _full_sorted_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed full-graph ``(src, dst, lat)`` stably sorted by src.

        Built once per overlay (liveness masking per epoch happens in
        :meth:`live_csr`); matches the concatenation order of
        :meth:`live_edges` so masked rows keep the historical neighbour
        order.
        """
        cached = self._full_sorted_cache
        if cached is None:
            edges = self.topology.edges
            if len(edges):
                src = np.concatenate([edges[:, 0], edges[:, 1]])
                dst = np.concatenate([edges[:, 1], edges[:, 0]])
                lat = np.concatenate([self._edge_lat_ms, self._edge_lat_ms])
                order = np.argsort(src, kind="stable")
                cached = (src[order], dst[order], lat[order])
            else:
                cached = (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                )
            self._full_sorted_cache = cached
        return cached

    def walk_csr(self) -> WalkCsr:
        """The live CSR prepared for the walk kernels, cached per epoch.

        Wraps :meth:`live_csr` in a :class:`repro.sim.kernels.WalkCsr`
        (plain-list mirrors for the stepping recurrence + the NumPy arrays
        for vectorised post-processing).  The list mirrors cost O(E) to
        build, so like the other live views they are built once per churn
        epoch and shared by every delivery/search until the next
        join/leave.
        """
        cached = self._walk_csr_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        csr = WalkCsr(*self.live_csr())
        self._walk_csr_cache = (self.epoch, csr)
        return csr

    def neighbors(self, node: int) -> np.ndarray:
        """All wired neighbours regardless of liveness."""
        return self._adj_nodes[node]

    def live_degree(self, node: int) -> int:
        return int(np.count_nonzero(self._live[self._adj_nodes[node]]))

    # -------------------------------------------------------------- latency
    def direct_latency_ms(self, u: int, v: int) -> float:
        """One-way physical latency between two overlay nodes (for RTTs).

        With a latency model this is the exact physical-path latency
        between the endpoints' physical nodes.  Without one, every
        distinct pair costs ``default_edge_latency_ms`` (``u == v`` is
        free) -- a flat latency world, matching what the walk latencies
        default to.  Explicit ``edge_latencies_ms`` arrays only describe
        *overlay edges*; they carry no information about arbitrary pairs,
        so the flat default applies to direct (off-overlay) hops too.
        """
        if self.latency is None:
            return 0.0 if u == v else self.default_edge_latency_ms
        phys = self.topology.physical_ids
        return self.latency.latency_ms(int(phys[u]), int(phys[v]))

    def direct_latencies_ms(self, us, vs) -> np.ndarray:
        """Vectorised :meth:`direct_latency_ms` from ``us`` to ``vs``, ids or
        id arrays broadcast together: one node to many, or many to one.
        The two are different float sums, so orientation is the caller's."""
        us, vs = np.broadcast_arrays(
            np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        )
        if self.latency is None:
            return np.where(us == vs, 0.0, self.default_edge_latency_ms)
        phys = self.topology.physical_ids
        return self.latency.pairwise_ms(phys[us], phys[vs])
