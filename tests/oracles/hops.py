"""Hop-distance oracle: scipy's all-pairs shortest paths on a small graph.

The stub-domain hop counts of :mod:`repro.network.transit_stub` come from
breadth-first frontier products over a dense adjacency; this is the
implementation they replaced (a ``scipy.sparse`` round-trip per domain),
kept as the independent answer they are compared against.
:func:`domain_hops` reads a domain's full hop matrix off the network's
public queries, which is what the oracle is compared with.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

__all__ = ["domain_hops", "hop_matrix_reference"]


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
