"""Hop-distance oracle: scipy's all-pairs shortest paths on a small graph.

The stub-domain hop matrices of :mod:`repro.network.transit_stub` come from
frontier matrix products over a dense adjacency; this is the implementation
they replaced (a ``scipy.sparse`` round-trip per domain), kept as the
independent answer they are compared against.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

__all__ = ["hop_matrix_reference"]


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
