"""Flood oracle: hop-bounded Bellman-Ford over the full live edge arrays
(the rows of the epoch's ``WalkCsr``, which ``test_overlay_stateful.py``
checks against ``topology.edges`` + the live mask on its own).

The pre-kernel implementation of :func:`repro.search.flooding.flood_reach`
(same contract, bit-identical outputs): TTL rounds of ``np.minimum.at``
over every live edge, no frontier bookkeeping, one source at a time.
:func:`flood_frontier_reference` stacks such floods into the rows of a
:func:`repro.sim.kernels.flood_frontier` pass.
"""

from typing import Tuple

import numpy as np

from repro.network.overlay import Overlay
from repro.sim.kernels import WalkCsr

__all__ = ["flood_frontier_reference", "flood_reach_reference"]

Flood = Tuple[np.ndarray, np.ndarray, int]


def _flood_edges(n, src, dst, lat, deg, source: int, ttl: int) -> Flood:
    arrival = np.full(n, np.inf)
    arrival[source] = 0.0
    first_hop = np.full(n, -1, dtype=np.int64)
    first_hop[source] = 0
    for h in range(1, ttl + 1):
        relaxed = arrival[src] + lat
        new_arrival = arrival.copy()
        np.minimum.at(new_arrival, dst, relaxed)
        newly = (first_hop < 0) & np.isfinite(new_arrival)
        if not newly.any() and np.array_equal(new_arrival, arrival):
            arrival = new_arrival
            break
        first_hop[newly] = h
        arrival = new_arrival

    forwarding = (first_hop >= 1) & (first_hop < ttl)
    n_messages = int(deg[source]) + int(np.sum(deg[forwarding] - 1))
    return first_hop, arrival, n_messages


def _csr_edges(csr: WalkCsr):
    """``(src, dst, lat, deg)``: the CSR's rows unrolled into edge arrays,
    degrees counted from them (not read from ``csr.deg``)."""
    src = np.repeat(np.arange(csr.n), np.diff(csr.indptr))
    return src, csr.indices, csr.lats, np.bincount(src, minlength=csr.n)


def flood_reach_reference(overlay: Overlay, source: int, ttl: int) -> Flood:
    """``(first_hop, arrival_ms, n_messages)`` of one flood from ``source``."""
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    if not overlay.is_live(source):
        raise ValueError(f"flood source {source} is offline")
    return _flood_edges(overlay.n, *_csr_edges(overlay.walk_csr()), source, ttl)


def flood_frontier_reference(csr: WalkCsr, sources, ttl: int):
    """``(first_hop, arrival_ms, n_messages)`` of a pass: one
    :func:`flood_reach_reference` flood per source, stacked as rows."""
    edges = _csr_edges(csr)
    floods = [_flood_edges(csr.n, *edges, source, ttl) for source in sources]
    first_hop, arrival, n_messages = zip(*floods)
    return np.stack(first_hop), np.stack(arrival), np.array(n_messages)
