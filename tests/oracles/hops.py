"""Shortest-path oracles: scipy's graph searches on the transit-stub graphs.

The stub-domain hop counts of :mod:`repro.network.transit_stub` come from
breadth-first frontier products over a dense adjacency, and the transit
core's latencies from a numpy Floyd-Warshall; these are the
implementations they replaced (a ``scipy.sparse`` round-trip per domain, a
csr matrix and Dijkstra for the core), kept as the independent answers
they are compared against.  :func:`domain_hops` reads a domain's full hop
matrix off the network's public queries, which is what the oracle is
compared with.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

__all__ = ["core_distances_reference", "domain_hops", "hop_matrix_reference"]


def core_distances_reference(net) -> np.ndarray:
    """All-pairs latencies (ms) over ``net``'s transit-core edges: Dijkstra
    on an undirected csr graph; ``inf`` between components."""
    n = net.params.n_transit
    us, vs, ws = zip(*net._transit_edges) if net._transit_edges else ((), (), ())
    row = np.array(us + vs, dtype=np.int32)
    col = np.array(vs + us, dtype=np.int32)
    graph = csr_matrix((np.array(ws + ws, dtype=np.float64), (row, col)), shape=(n, n))
    return dijkstra(graph, directed=False)


def hop_matrix_reference(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts of a boolean adjacency matrix (int32;
    unreachable pairs map to INT32_MAX)."""
    n = len(adjacency)
    graph = csr_matrix(np.asarray(adjacency, dtype=np.int8))
    dist = shortest_path(graph, method="D", directed=False, unweighted=True)
    hops = np.full((n, n), np.iinfo(np.int32).max, dtype=np.int32)
    finite = np.isfinite(dist)
    hops[finite] = dist[finite].astype(np.int32)
    return hops


def domain_hops(net, domain_id):
    """A stub domain's ``(gateway local index, all-pairs hop matrix)``,
    built on first touch and read through ``gateway_hops`` and
    ``stub_hops`` over every pair alone."""
    size = net.params.stub_nodes_per_domain
    local = np.arange(size)
    domains = np.full(size * size, domain_id)
    u, v = np.divmod(np.arange(size * size), size)
    hops = net.stub_hops(domains, u, v).reshape(size, size)
    to_gateway = net.gateway_hops(domains[:size], local)
    return int(local[to_gateway == 0][0]), hops
