"""Churn-aware overlay runtime: liveness plus one per-epoch view of it.

The search algorithms' hot loops (hop-bounded floods, walker steps, ad
deliveries) all read the *live* overlay as one CSR.  Liveness only changes
at churn events -- about 2,000 times over a 30,000-request trace -- so the
runtime keeps exactly one derived structure, the CSR of the current *epoch*
(a counter bumped on every join/leave), and the ~15 searches between
consecutive churn events all reuse it: one cache to invalidate per churn
event.  This is the central optimisation that makes the paper-scale replay
tractable in Python (see DESIGN.md section 6).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

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
            edge_lat = edge_latencies_ms
        elif latency is not None:
            phys = topology.physical_ids
            latency.register(phys)
            edge_lat = latency.pairwise_ms(phys[edges[:, 0]], phys[edges[:, 1]])
        else:
            edge_lat = np.full(len(edges), default_edge_latency_ms)

        # Both directions of every edge, stably sorted by source once: an
        # epoch's CSR is a liveness mask over these (see :meth:`walk_csr`).
        if len(edges):
            src = np.concatenate([edges[:, 0], edges[:, 1]])
            dst = np.concatenate([edges[:, 1], edges[:, 0]])
            lat = np.concatenate([edge_lat, edge_lat])
            order = np.argsort(src, kind="stable")
            self._sorted_edges = (src[order], dst[order], lat[order])
        else:
            self._sorted_edges = (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        # v's topology neighbours are ``dst[topo_ptr[v]:topo_ptr[v + 1]]``.
        self._topo_ptr = np.searchsorted(self._sorted_edges[0], np.arange(self._n + 1))
        self._csr_cache: Optional[Tuple[int, WalkCsr]] = None
        # The nodes whose CSR row churn changed since the cached epoch.
        self._touched = np.zeros(self._n, dtype=bool)
        # When the replay will make nodes join or leave, and when it ends,
        # ascending: where work computed ahead on a walk CSR stops.
        self._churn_plan = np.empty(0)

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
        """Ascending live node ids.

        Large-N callers (ASAP warm-up scheduling, super-peer election)
        iterate this instead of probing :meth:`is_live` n times.
        """
        return np.flatnonzero(self._live)

    def plan_churn(self, times) -> None:
        """Record when the replay will make nodes join or leave, and when it
        ends; liveness never reads it, work computed ahead on a
        :meth:`walk_csr` does."""
        self._churn_plan = np.sort(np.asarray(times, dtype=np.float64))

    def next_churn(self, now: float) -> float:
        """The first planned join, leave or end after ``now``, else
        infinity."""
        i = int(np.searchsorted(self._churn_plan, now, side="right"))
        return float(self._churn_plan[i]) if i < len(self._churn_plan) else math.inf

    def join(self, node: int) -> None:
        """Bring ``node`` online (no-op error if already live)."""
        if self._live[node]:
            raise ValueError(f"node {node} is already live")
        self._churn(node)

    def leave(self, node: int) -> None:
        """Take ``node`` offline."""
        if not self._live[node]:
            raise ValueError(f"node {node} is already offline")
        self._churn(node)

    def _churn(self, node: int) -> None:
        """Flip ``node``'s liveness: a new epoch, whose CSR rows differ from
        the last one's at ``node`` and its topology neighbours at most."""
        self._live[node] = not self._live[node]
        self.epoch += 1
        lo, hi = self._topo_ptr[node : node + 2].tolist()
        self._touched[node] = True
        self._touched[self._sorted_edges[1][lo:hi]] = True

    # ------------------------------------------------------- the live graph
    def walk_csr(self) -> WalkCsr:
        """The live subgraph as a CSR, built once per churn epoch.

        ``indices[indptr[u]:indptr[u+1]]`` are u's live neighbours, with
        per-edge latencies in ``lats`` alongside; an offline node's row is
        empty (the CSR covers live-to-live edges only).  Every flood, walk,
        delivery and search between two churn events shares the one
        :class:`repro.sim.kernels.WalkCsr`: a walk step costs one integer
        draw plus a couple of list indexings instead of a boolean mask over
        the adjacency -- the difference between minutes and hours at paper
        scale (10,000 warm-up deliveries x thousands of steps).  Its
        plain-list rows for the stepping recurrence are built on first use
        from the previous epoch's rows (:meth:`WalkCsr.carry`): only the
        rows of nodes that joined or left since, and of their topology
        neighbours, are rebuilt.  The new epoch holds those row lists, not
        the previous ``WalkCsr``.
        """
        cached = self._csr_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        # Mask the once-sorted full-graph edge arrays instead of re-sorting
        # per epoch: a stable sort of a subsequence equals the subsequence
        # of the stable sort, so each node's live neighbour order -- which
        # the walk kernels' seeded trajectories depend on -- is bit-for-bit
        # what sorting the live edges directly would produce.
        src_s, dst_s, lat_s = self._sorted_edges
        alive = self._live[src_s] & self._live[dst_s]
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src_s[alive], minlength=self._n), out=indptr[1:])
        touched, self._touched = self._touched, np.zeros(self._n, dtype=bool)
        rows = None if cached is None else cached[1].carry(touched)
        csr = WalkCsr(indptr, dst_s[alive], lat_s[alive], rows)
        self._csr_cache = (self.epoch, csr)
        return csr

    def live_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Live neighbours of ``node`` with their edge latencies (ms): its
        row of the epoch's CSR, in CSR order (not ascending ids -- callers
        that need an order sort), and empty for an offline ``node``."""
        # Through the class: a harness that times searches' reads wraps the
        # instance's ``walk_csr`` name, which this is not one of.
        csr = Overlay.walk_csr(self)
        lo, hi = csr.indptr[node], csr.indptr[node + 1]
        return csr.indices[lo:hi], csr.lats[lo:hi]

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
        # Through the class, as in :meth:`live_neighbors`: a harness that
        # times the instance's two latency names sees one call, not two.
        return float(Overlay.direct_latencies_ms(self, [u], [v])[0])

    def direct_latencies_ms(self, us, vs) -> np.ndarray:
        """Vectorised :meth:`direct_latency_ms` from ``us`` to ``vs``, ids or
        id arrays broadcast together: one node to many, or many to one.
        The two are different float sums, so orientation is the caller's."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            us, vs = np.broadcast_arrays(us, vs)
        if self.latency is None:
            return np.where(us == vs, 0.0, self.default_edge_latency_ms)
        phys = self.topology.physical_ids
        return self.latency.pairwise_ms(phys[us], phys[vs])
