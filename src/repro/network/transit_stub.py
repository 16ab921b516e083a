"""GT-ITM transit-stub physical network model.

Reimplements the topology of Zegura et al. ("How to model an internetwork",
INFOCOM'96) with the exact parameters of the paper's Section IV-A:

* 9 transit domains, 16 transit nodes each (144 transit nodes);
* every transit node has 9 stub domains attached;
* every stub domain has 40 stub nodes (51,840 stub nodes; 51,984 total);
* the 9 transit domains are fully connected at the top level;
* two transit nodes in one transit domain connect with probability 0.6;
* two stub nodes in one stub domain connect with probability 0.4;
* no edges between stub nodes of different stub domains;
* link latencies: 50 ms inter-transit-domain, 20 ms intra-transit-domain,
  5 ms transit-to-stub, 2 ms intra-stub-domain.

Node numbering
--------------
Transit nodes occupy ids ``0 .. n_transit-1``; stub node ids follow,
``n_transit + sd * stub_size + j`` for stub domain ``sd`` and local index
``j``.  With the defaults, ids run 0..51,983 -- matching the paper's count.

Laziness
--------
Only the transit core (144 nodes) is materialised eagerly.  Each of the
1,296 stub-domain graphs is generated on first touch from its own named RNG
substream, so results are deterministic regardless of access order and a
scaled-down experiment that touches 50 domains never pays for 1,296.  A
materialised domain keeps only what a latency needs: its gateway, every
node's hop count to that gateway, and its adjacency (packed eight nodes to
a byte), one slice each of three network-wide arrays.  A batch of missing
domains is built together: the edge masks of all of them go into one
boolean stack, and one breadth-first pass (:func:`_bfs`) over the stack
gives every domain's connectivity, a second every gateway row.  The rare
same-domain pair runs the same :func:`_bfs` from its first node over the
stored adjacency (docs/PERFORMANCE.md, "Set-up path", has what each step
costs).  The network answers only vectorised queries
(:meth:`TransitStubNetwork.stub_hops`,
:meth:`TransitStubNetwork.gateway_hops`); one node is a batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.sim.random import RandomStreams

__all__ = ["TransitStubNetwork", "TransitStubParams"]


@dataclass(frozen=True)
class TransitStubParams:
    """Shape and latency parameters of the transit-stub model.

    Defaults are the paper's exact configuration (51,984 physical nodes).
    """

    n_transit_domains: int = 9
    transit_nodes_per_domain: int = 16
    stub_domains_per_transit: int = 9
    stub_nodes_per_domain: int = 40
    p_transit_edge: float = 0.6
    p_stub_edge: float = 0.4
    lat_inter_transit_ms: float = 50.0
    lat_intra_transit_ms: float = 20.0
    lat_transit_stub_ms: float = 5.0
    lat_intra_stub_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.n_transit_domains < 1:
            raise ValueError("need at least one transit domain")
        if self.transit_nodes_per_domain < 1:
            raise ValueError("need at least one transit node per domain")
        if self.stub_domains_per_transit < 0:
            raise ValueError("stub_domains_per_transit must be >= 0")
        if self.stub_nodes_per_domain < 1:
            raise ValueError("need at least one stub node per domain")
        for p in (self.p_transit_edge, self.p_stub_edge):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge probability out of range: {p}")

    @property
    def n_transit(self) -> int:
        return self.n_transit_domains * self.transit_nodes_per_domain

    @property
    def n_stub_domains(self) -> int:
        return self.n_transit * self.stub_domains_per_transit

    @property
    def n_stub(self) -> int:
        return self.n_stub_domains * self.stub_nodes_per_domain

    @property
    def n_nodes(self) -> int:
        return self.n_transit + self.n_stub


def _connect_components(
    n: int, adjacency: List[Set[int]], rng: np.random.Generator
) -> None:
    """Add random edges until the graph on ``n`` nodes is connected."""
    seen = np.zeros(n, dtype=bool)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(comp)
    # Chain components together with one random edge each.
    for prev, nxt in zip(components, components[1:]):
        u = int(rng.choice(prev))
        v = int(rng.choice(nxt))
        adjacency[u].add(v)
        adjacency[v].add(u)


#: Hop count of a node no path reaches (graphs here are forced connected, so
#: it only ever shows between a draw and its bridging step).
UNREACHABLE = np.iinfo(np.int32).max


def _bfs(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop counts from one source per graph of a stack of boolean adjacency
    matrices: ``(k, n, n)`` and ``(k,)`` local indices give ``(k, n)`` int32.

    Breadth-first over the whole stack in lockstep: the nodes first reached
    at distance ``d + 1`` are ``frontier @ adjacency`` minus those already
    reached (one boolean matmul per level for every graph; a stub domain at
    the paper's parameters has diameter 3-4, so the loop runs that often).
    """
    k, n = adjacency.shape[:2]
    rows = np.arange(k)
    hops = np.full((k, n), UNREACHABLE, dtype=np.int32)
    reached = np.zeros((k, n), dtype=bool)
    reached[rows, sources] = True
    hops[rows, sources] = 0
    frontier, distance = reached, 0
    while frontier.any():
        distance += 1
        frontier = np.matmul(frontier[:, None, :], adjacency)[:, 0] & ~reached
        hops[frontier] = distance
        reached = reached | frontier
    return hops


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per graph size."""
    return np.triu_indices(n, k=1)


def _random_graphs(
    n: int, p: float, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Erdos-Renyi G(n, p) per generator, forced connected: a
    ``(len(rngs), n, n)`` stack of dense symmetric boolean adjacencies.

    Each graph draws its upper-triangle Bernoulli mask from its own
    generator, straight into one row of a boolean stack, and one
    :func:`_bfs` from node 0 tells every graph's connectivity.  A
    disconnected draw (about one stub domain in 10^7 at the paper's
    parameters, most at deliberately sparse ones) is bridged by
    :func:`_connect_components` over adjacency sets filled in the draw's
    own edge order, which fixes the order it discovers components in and
    therefore what its ``rng.choice`` calls return.
    """
    iu, ju = _upper_triangle(n)
    masks = np.zeros((len(rngs), len(iu)), dtype=bool)
    if p > 0:  # p == 0 draws nothing, as it never has.
        for mask, rng in zip(masks, rngs):
            np.less(rng.random(len(iu)), p, out=mask)
    adjacency = np.zeros((len(rngs), n, n), dtype=bool)
    adjacency[:, iu, ju] = adjacency[:, ju, iu] = masks
    reach = _bfs(adjacency, np.zeros(len(rngs), dtype=np.int64))
    for g in np.flatnonzero(reach.max(axis=1) == UNREACHABLE).tolist():
        sets: List[Set[int]] = [set() for _ in range(n)]
        for u, v in zip(iu[masks[g]].tolist(), ju[masks[g]].tolist()):
            sets[u].add(v)
            sets[v].add(u)
        _connect_components(n, sets, rngs[g])
        for u, nbrs in enumerate(sets):
            adjacency[g, u, list(nbrs)] = True
    return adjacency


class TransitStubNetwork:
    """The physical internet every experiment's latencies derive from."""

    def __init__(self, params: TransitStubParams | None = None, seed: int = 0) -> None:
        self.params = params or TransitStubParams()
        self._streams = RandomStreams(seed=seed)
        n_domains, size = self.params.n_stub_domains, self.params.stub_nodes_per_domain
        # Per stub domain (``zeros``: a page is committed when its domain is
        # built): gateway local index (-1 = not yet materialised), every
        # node's hop count to it, and the adjacency, eight nodes to a byte.
        self._gateway = np.full(n_domains, -1, dtype=np.int64)
        self._gateway_hops = np.zeros((n_domains, size), dtype=np.int32)
        self._adjacency = np.zeros((n_domains, size, (size + 7) // 8), dtype=np.uint8)
        self._core_dist: np.ndarray | None = None
        self._build_transit_core()

    # -------------------------------------------------------------- topology
    def _build_transit_core(self) -> None:
        """Wire the transit nodes: intra-domain ER(0.6) + inter-domain links."""
        p = self.params
        rng = self._streams.get("transit-core")
        edges: List[Tuple[int, int, float]] = []
        # Intra-domain edges.
        for dom in range(p.n_transit_domains):
            base = dom * p.transit_nodes_per_domain
            adjacency = _random_graphs(
                p.transit_nodes_per_domain, p.p_transit_edge, [rng]
            )[0]
            for u, v in zip(*np.nonzero(np.triu(adjacency))):
                edges.append((base + int(u), base + int(v), p.lat_intra_transit_ms))
        # Inter-domain edges: the 9 domains form a complete graph at domain
        # level; each domain pair is joined by one edge between random
        # member transit nodes.
        for da in range(p.n_transit_domains):
            for db in range(da + 1, p.n_transit_domains):
                u = da * p.transit_nodes_per_domain + int(
                    rng.integers(p.transit_nodes_per_domain)
                )
                v = db * p.transit_nodes_per_domain + int(
                    rng.integers(p.transit_nodes_per_domain)
                )
                edges.append((u, v, p.lat_inter_transit_ms))
        self._transit_edges = edges

    def transit_core_distances(self) -> np.ndarray:
        """All-pairs shortest-path latencies (ms) over the transit core;
        ``inf`` where no path joins two nodes.

        A Floyd-Warshall, one ``np.minimum`` per pivot over the 144 x 144
        table (about 5 ms).  Every sum is exact, and so equal to
        Dijkstra's, when each latency is a whole number of ms, as the
        paper's 50/20/5/2 are; with fractional ones it adds a path's legs
        in another order than Dijkstra and can differ in the last ulp.
        """
        if self._core_dist is None:
            n = self.params.n_transit
            dist = np.full((n, n), np.inf)
            np.fill_diagonal(dist, 0.0)
            for u, v, latency in self._transit_edges:
                dist[u, v] = dist[v, u] = latency
            for k in range(n):
                np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
            self._core_dist = dist
        return self._core_dist

    # ----------------------------------------------------------- id helpers
    @property
    def n_nodes(self) -> int:
        return self.params.n_nodes

    # ------------------------------------------------------------ stub graphs
    def stub_coordinates(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(stub-domain id, local index)`` of an array of stub node ids."""
        return np.divmod(
            nodes - self.params.n_transit, self.params.stub_nodes_per_domain
        )

    def materialise(self, domain_ids: np.ndarray) -> None:
        """Generate the stub domains among ``domain_ids`` not yet built, as
        one batch: every domain draws from its own stream, in the order it
        always has (edge mask, any bridging, then its gateway)."""
        p, size = self.params, self.params.stub_nodes_per_domain
        domain_ids = np.asarray(domain_ids)
        bad = (domain_ids < 0) | (domain_ids >= p.n_stub_domains)
        if bad.any():
            raise ValueError(f"bad stub domain id {domain_ids[bad][0]}")
        missing = np.unique(domain_ids[self._gateway[domain_ids] < 0])
        if not len(missing):
            return
        rngs = [self._streams.get(f"stub-domain-{d}") for d in missing.tolist()]
        adjacency = _random_graphs(size, p.p_stub_edge, rngs)
        gateway = np.array([rng.integers(size) for rng in rngs], dtype=np.int64)
        self._gateway[missing] = gateway
        self._gateway_hops[missing] = _bfs(adjacency, gateway)
        self._adjacency[missing] = np.packbits(adjacency, axis=-1)

    def stub_hops(
        self, domains: np.ndarray, local_u: np.ndarray, local_v: np.ndarray
    ) -> np.ndarray:
        """Hop counts between local indices of stub domains (aligned arrays):
        one breadth-first pass from each pair's ``u``."""
        self.materialise(domains)
        size = self.params.stub_nodes_per_domain
        adjacency = np.unpackbits(
            self._adjacency[domains], axis=-1, count=size
        ).view(bool)
        return _bfs(adjacency, local_u)[np.arange(len(adjacency)), local_v]

    def gateway_hops(self, domains: np.ndarray, local: np.ndarray) -> np.ndarray:
        """Hop counts from local indices to their domains' gateways."""
        self.materialise(domains)
        return self._gateway_hops[domains, local]
